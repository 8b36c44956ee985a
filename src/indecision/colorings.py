"""Exact combinatorics of synchrony patterns on the m x n influence grid.

Everything here that decides a yes/no question (balance, subspace
dimensions, axiality, conjugacy, orbital versus exotic) is computed in exact
integer or rational arithmetic; floating point appears only in the numeric
verification half of the stable-equilibrium synthesis.

Contents:

* balance checking and the grid-tiling normal form (every balanced coloring
  is conjugate to a grid of Latin rectangles with pairwise disjoint colors);
* the dimension of a synchrony subspace inside the doubly-zero-sum
  (dissensus) subspace, by rational rank;
* canonical forms under row and column permutations (the least relabeled
  column-major word, found by a search that refines an ordered partition
  of the rows column by column);
* structural enumeration of all axial colorings (dimension exactly 1),
  which come in three families:
    A: optional one-color column block forced to value 0, next to a
       two-color Latin rectangle on the remaining columns;
    B: the transpose arrangement (one-color row block on top);
    C: a 2 x 2 grid of one-color blocks;
  the only guard is MAX_AXIAL_CELLS on the grid size, and every shape under
  it finishes (demos/08_axial_census.py prints the census);
* isotropy subgroups in S_m x S_n, found over the permutations of the
  shorter side, their cell orbits, and the resulting orbital/exotic verdict
  (orbital = the pattern is exactly the fixed cells of its isotropy group);
* the 4-row sufficiency test for exotic two-color Latin rectangles via
  column-pair multiplicities;
* exact value assignments spanning each axial pattern's line;
* synthesis of an admissible map with a prescribed linearly stable
  equilibrium on any balanced coloring (Hermite interpolation in the node's
  own variable).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import chain, combinations, permutations, product
from math import comb, factorial

import numpy as np

from .patterns import Coloring

__all__ = [
    "NotBalancedError",
    "SearchBudgetError",
    "LatinRectangleBlock",
    "RectangleTiling",
    "AxialColoring",
    "AxialCatalog",
    "IsotropyReport",
    "StablePolynomialMap",
    "SynthesisReport",
    "is_balanced",
    "balance_witness",
    "is_latin_rectangle",
    "tiling_decomposition",
    "dim_Vd_intersection",
    "dissensus_intersection_basis",
    "is_axial_Vd",
    "canonical_form",
    "check_axial_shape",
    "enumerate_axial",
    "isotropy_subgroup",
    "classify_orbital_exotic",
    "column_pair_multiplicities",
    "column_type_counts",
    "exotic_sufficient_4xn",
    "axial_values",
    "axial_value_matrix",
    "synthesize_stable_admissible",
    "all_colorings",
]


class NotBalancedError(ValueError):
    """Raised when a tiling decomposition is requested for an unbalanced
    coloring; carries a witness pair of same-colored cells whose input
    multisets differ."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"coloring is not balanced: cells {witness[0]} and "
                         f"{witness[1]} have the same color but different "
                         f"{witness[2]} input multisets")


class SearchBudgetError(RuntimeError):
    """An axial enumeration was asked for a grid larger than
    MAX_AXIAL_CELLS cells."""


MAX_AXIAL_CELLS = 42    # largest grid (m * n cells) enumerate_axial accepts


# ---------------------------------------------------------------------------
# balance and the tiling normal form
# ---------------------------------------------------------------------------

def _input_signatures(c: Coloring):
    """Per cell: color count vectors of its row inputs, column inputs and
    diagonal inputs (own cell excluded from row/column, included back in the
    complement count)."""
    m, n, K = c.m, c.n, c.num_colors
    counts = _sum_constraints(c)
    rowcnt, colcnt = counts[:m], counts[m:]
    total = [sum(col) for col in zip(*rowcnt)]
    sigs = {}
    for i in range(m):
        for j in range(n):
            col = c.cells[i][j]
            row = tuple(rowcnt[i][k] - (k == col) for k in range(K))
            cln = tuple(colcnt[j][k] - (k == col) for k in range(K))
            diag = tuple(total[k] - rowcnt[i][k] - colcnt[j][k] + (k == col)
                         for k in range(K))
            sigs[(i, j)] = (row, cln, diag)
    return sigs


def balance_witness(c: Coloring):
    """None when balanced, otherwise ((i1,j1), (i2,j2), kind) for one pair of
    same-colored cells with differing input multisets."""
    sigs = _input_signatures(c)
    rep: dict[int, tuple] = {}
    for i in range(c.m):
        for j in range(c.n):
            col = c.cells[i][j]
            if col not in rep:
                rep[col] = (i, j)
                continue
            ri, rj = rep[col]
            ref, cur = sigs[(ri, rj)], sigs[(i, j)]
            if ref != cur:
                kind = ("row", "column", "diagonal")[
                    next(k for k in range(3) if ref[k] != cur[k])]
                return ((ri, rj), (i, j), kind)
    return None


def is_balanced(c: Coloring) -> bool:
    """Same-colored cells must see the same color multisets through each of
    the three arrow types (row, column, diagonal)."""
    return balance_witness(c) is None


def is_latin_rectangle(block) -> bool:
    """Each color appears the same number of times in every row and the same
    number of times in every column of the block."""
    rows = [tuple(r) for r in (block.cells if isinstance(block, Coloring) else block)]
    if not rows or not rows[0]:
        return False
    colors = sorted({x for r in rows for x in r})

    def counts(line):
        return tuple(sum(1 for x in line if x == col) for col in colors)

    row_counts = {counts(r) for r in rows}
    col_counts = {counts(col) for col in zip(*rows)}
    return len(row_counts) == 1 and len(col_counts) == 1


@dataclass(frozen=True)
class LatinRectangleBlock:
    """One tile: which rows and columns it occupies (original indices, in
    conjugated order) and its sub-array of color ids."""

    rows: tuple[int, ...]
    cols: tuple[int, ...]
    colors: tuple[tuple[int, ...], ...]

    @property
    def color_set(self) -> frozenset:
        return frozenset(x for row in self.colors for x in row)


@dataclass(frozen=True)
class RectangleTiling:
    """Grid tiling of a balanced coloring.  `conjugation` is (row_perm,
    col_perm) with perm[k] = original index placed at position k; applying
    it makes the blocks contiguous, row groups stacked, column groups side
    by side."""

    blocks: tuple[LatinRectangleBlock, ...]
    conjugation: tuple[tuple[int, ...], tuple[int, ...]]
    row_groups: tuple[tuple[int, ...], ...]
    col_groups: tuple[tuple[int, ...], ...]

    @property
    def color_counts(self) -> tuple[int, ...]:
        return tuple(len(b.color_set) for b in self.blocks)

    def axial_dimension_count(self) -> int:
        """sum of per-block color counts - (#row groups) - (#col groups) + 1."""
        return sum(self.color_counts) - len(self.row_groups) - len(self.col_groups) + 1


def tiling_decomposition(c: Coloring) -> RectangleTiling:
    """Decompose a balanced coloring into its grid of Latin rectangles.

    Row groups are the distinct row supports of the colors, column groups
    the distinct column supports; each (row group, column group) block must
    be a Latin rectangle and distinct blocks automatically use disjoint
    colors.  Raises NotBalancedError (with witness) when any of this fails.
    """
    m, n = c.m, c.n
    rows_of: dict[int, frozenset] = {}
    cols_of: dict[int, frozenset] = {}
    for col in range(c.num_colors):
        rows_of[col] = frozenset(i for i in range(m)
                                 if any(x == col for x in c.cells[i]))
        cols_of[col] = frozenset(j for j in range(n)
                                 if any(c.cells[i][j] == col for i in range(m)))

    def fail():
        witness = balance_witness(c)
        assert witness is not None, "tiling failed on a balanced coloring"
        raise NotBalancedError(witness)

    row_sets = set(rows_of.values())
    col_sets = set(cols_of.values())
    # every cell's color must live exactly on (row group of i) x (col group of j),
    # which also fails when two row (or column) groups overlap
    row_group_of = {}
    for rs in row_sets:
        for i in rs:
            row_group_of[i] = rs
    col_group_of = {}
    for cs in col_sets:
        for j in cs:
            col_group_of[j] = cs
    for i in range(m):
        for j in range(n):
            col = c.cells[i][j]
            if rows_of[col] != row_group_of[i] or cols_of[col] != col_group_of[j]:
                fail()

    row_groups = sorted(row_sets, key=min)
    col_groups = sorted(col_sets, key=min)
    blocks = []
    for rs in row_groups:
        for cs in col_groups:
            rr, cc = sorted(rs), sorted(cs)
            sub = tuple(tuple(c.cells[i][j] for j in cc) for i in rr)
            if not is_latin_rectangle(sub):
                fail()
            blocks.append(LatinRectangleBlock(rows=tuple(rr), cols=tuple(cc),
                                              colors=sub))
    row_perm = tuple(i for rs in row_groups for i in sorted(rs))
    col_perm = tuple(j for cs in col_groups for j in sorted(cs))
    return RectangleTiling(blocks=tuple(blocks),
                           conjugation=(row_perm, col_perm),
                           row_groups=tuple(tuple(sorted(rs)) for rs in row_groups),
                           col_groups=tuple(tuple(sorted(cs)) for cs in col_groups))


# ---------------------------------------------------------------------------
# exact linear algebra on color values
# ---------------------------------------------------------------------------

def _sum_constraints(c: Coloring) -> list[list[int]]:
    """Rows: per grid row and per grid column, the count of each color."""
    K = c.num_colors
    rows = []
    for i in range(c.m):
        v = [0] * K
        for j in range(c.n):
            v[c.cells[i][j]] += 1
        rows.append(v)
    for j in range(c.n):
        v = [0] * K
        for i in range(c.m):
            v[c.cells[i][j]] += 1
        rows.append(v)
    return rows


def _exact_rref(rows: list[list[Fraction]]):
    """In-place reduced row echelon form; returns pivot column list."""
    if not rows:
        return []
    ncol = len(rows[0])
    piv_cols = []
    r = 0
    for col in range(ncol):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        pv = rows[r][col]
        rows[r] = [x / pv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        piv_cols.append(col)
        r += 1
    return piv_cols


def dim_Vd_intersection(c: Coloring) -> int:
    """Dimension (exact, over the rationals) of the space of color-constant
    states whose row sums and column sums all vanish."""
    return len(dissensus_intersection_basis(c))


def dissensus_intersection_basis(c: Coloring) -> list[tuple[Fraction, ...]]:
    """Exact basis (per-color value vectors) of the same space."""
    mat = [[Fraction(x) for x in row] for row in _sum_constraints(c)]
    piv_cols = _exact_rref(mat)
    K = c.num_colors
    free = [k for k in range(K) if k not in piv_cols]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * K
        vec[fc] = Fraction(1)
        for r, pc in enumerate(piv_cols):
            vec[pc] = -mat[r][fc]
        basis.append(tuple(vec))
    return basis


def is_axial_Vd(c: Coloring) -> bool:
    """Balanced and meeting the dissensus subspace in exactly one dimension
    (the diagonal of fully synchronous states meets it only at 0, so no
    separate check is needed for that)."""
    return is_balanced(c) and dim_Vd_intersection(c) == 1


# ---------------------------------------------------------------------------
# canonical forms and conjugacy
# ---------------------------------------------------------------------------

def _least_chunks(col, cells, labels):
    """Every least way to read one column under an ordered row partition.

    `cells` are the row cells top to bottom; rows within a cell are still
    unordered, and `labels` maps the colors met so far to their dense
    labels.  Within a cell the rows with known colors come first, by label,
    then the new colors, largest count first, each taking the next free
    label.  New colors of equal count may take their labels in either order,
    so one (chunk, refined cells, labels) triple is yielded per such order;
    each cell is split into the runs of rows that share a label."""
    if not cells:
        yield (), (), labels
        return
    runs: dict[int, list[int]] = {}
    for i in cells[0]:
        runs.setdefault(col[i], []).append(i)
    tiers: dict[int, list[int]] = {}
    for v, rows in runs.items():
        if v not in labels:
            tiers.setdefault(len(rows), []).append(v)
    tied = [permutations(vs) for _, vs in sorted(tiers.items(), reverse=True)]
    for order in product(*tied):
        known = dict(labels)
        for v in (v for tier in order for v in tier):
            known[v] = len(known)
        head = sorted(runs, key=known.__getitem__)
        chunk = tuple(known[v] for v in head for _ in runs[v])
        split = tuple(tuple(runs[v]) for v in head)
        for rest_chunk, rest_split, rest_labels in _least_chunks(col, cells[1:], known):
            yield chunk + rest_chunk, split + rest_split, rest_labels


@lru_cache(maxsize=4096)
def canonical_form(c: Coloring) -> Coloring:
    """Canonical representative of a coloring under row and column
    permutations.

    The representative minimizes the column-major word of the grid after
    dense relabeling in first-occurrence order, over all row permutations
    and column orders; two colorings are conjugate iff their canonical
    forms are equal.

    The search is depth first and places one column per step.  A node is
    an ordered partition of the rows (rows in one cell have agreed on every
    placed column, so their order is still open), the labels met so far and
    the columns left.  A node keeps only the columns, and the orders of tied
    new colors, that give its least next chunk (identical columns are tried
    once per node), and splits each row cell by the labels it just got, so
    rows are individualised only where color counts tie.  A node whose word
    is above the least word of the same length met so far is dropped.
    """
    m, n = c.m, c.n
    cols = [tuple(c.cells[i][j] for i in range(m)) for j in range(n)]
    least_at = {0: ()}      # least word met so far, by length
    stack = [((tuple(range(m)),), {}, tuple(range(n)), ())]
    while stack:
        cells, labels, remaining, word = stack.pop()
        if not remaining or word > least_at[len(word)]:
            continue
        least, kept, tried = None, [], set()
        for j in remaining:
            if cols[j] in tried:
                continue
            tried.add(cols[j])
            rest = tuple(k for k in remaining if k != j)
            for chunk, split, known in _least_chunks(cols[j], cells, labels):
                if least is None or chunk < least:
                    least, kept = chunk, []
                if chunk == least:
                    kept.append((split, known, rest))
        prefix = word + least
        if prefix <= least_at.get(len(prefix), prefix):
            least_at[len(prefix)] = prefix
            stack += [(split, known, rest, prefix) for split, known, rest in kept]
    word = least_at[m * n]
    grid = [[word[j * m + i] for j in range(n)] for i in range(m)]
    return Coloring.from_rows(grid)


# ---------------------------------------------------------------------------
# two-color Latin rectangles
# ---------------------------------------------------------------------------

def _two_color_latin_masks(p: int, q: int) -> np.ndarray:
    """The p x q 0/1 arrays with constant row sums and constant column sums,
    both symbols present, and columns non-increasing from left to right, as
    an (N, q) int64 array of column masks (a column read top-down is a
    p-bit integer, row 0 the most significant bit).  Every such array is a
    column permutation of exactly one of these.

    With a ones per row and b per column, row 0 is a ones then zeros: the
    only row whose columns are non-increasing.  The middle rows are added
    one at a time, each ranging over combinations(range(q), a) with earlier
    rows varying slowest.  A partial array is kept while every column count
    c satisfies b - rows_left <= c <= b and its partial column masks are
    non-increasing.  The last row is then forced to b - c, and the array is
    kept when that row is 0/1 and its columns are non-increasing."""
    out = [np.zeros((0, q), dtype=np.int64)]
    for a in range(1, q):
        b, rem = divmod(a * p, q)
        if rem:
            continue
        counts = np.array([[1] * a + [0] * (q - a)], dtype=np.int8)
        masks = counts.astype(np.int64)
        if p > 2:
            picked = np.fromiter(chain.from_iterable(combinations(range(q), a)),
                                 np.intp, comb(q, a) * a).reshape(-1, a)
            choices = np.zeros((len(picked), q), dtype=np.int8)   # one 0/1 row per combination
            np.put_along_axis(choices, picked, 1, axis=1)
            for rows_left in range(p - 2, 0, -1):
                grown = counts[:, None] + choices     # (kept, choices, q) column counts
                moved = (masks[:, None] << 1) | choices   # (kept, choices, q) column masks
                keep = (((grown >= b - rows_left) & (grown <= b)).all(axis=2)
                        & (moved[..., :-1] >= moved[..., 1:]).all(axis=2))
                masks, counts = moved[keep], grown[keep]   # row-major: earlier rows vary slowest
        last = b - counts
        masks = (masks << 1) | last
        keep = (((last >= 0) & (last <= 1)).all(axis=1)
                & (masks[:, :-1] >= masks[:, 1:]).all(axis=1))
        out.append(masks[keep])
    return np.concatenate(out)


def _two_color_latin_reps(p: int, q: int):
    """One two-color Latin indicator per class under row permutations,
    column permutations and symbol swap: the first array of
    _two_color_latin_masks in each class, in ascending key order, as a
    tuple of row tuples.  The masks hold one array per class under column
    permutations, the one with columns in descending order, which is also
    the first of that class in the order rows are chosen.

    The key of an array is its sorted column masks, minimized over the p!
    row permutations and the complement; when p > q the transposed array is
    keyed instead, over q! permutations of its rows.  The sorted masks pack
    into one int64 (p * q <= MAX_AXIAL_CELLS bits), first column highest.
    0/1 tuples of one length compare like their binary values, and sorted
    tuples of columns like their packed values, so the keys order the
    classes as the sorted column tuples would."""
    masks = _two_color_latin_masks(p, q)
    grids = (masks[:, None, :] >> (p - 1 - np.arange(p))[:, None]) & 1
    keyed, rows = masks, p
    if p > q:
        keyed, rows = grids @ (1 << np.arange(q - 1, -1, -1, dtype=np.int64)), q   # row masks
    bits = (np.arange(1 << rows, dtype=np.int64)[:, None] >> (rows - 1 - np.arange(rows))) & 1
    row_weights = 1 << np.arange(rows - 1, -1, -1, dtype=np.int64)
    col_weights = 1 << (rows * np.arange(keyed.shape[1] - 1, -1, -1, dtype=np.int64))
    keys = np.full(len(keyed), np.iinfo(np.int64).max)
    for sigma in permutations(range(rows)):
        moved = bits[:, sigma] @ row_weights    # column mask with row sigma[k] at row k
        # moved[::-1][c] = moved[2**rows - 1 - c]: the same step on the complement
        for table in (moved, moved[::-1]):
            np.minimum(keys, np.sort(table[keyed], axis=1) @ col_weights, out=keys)
    _, first = np.unique(keys, return_index=True)
    return [tuple(map(tuple, g)) for g in grids[first].tolist()]


# ---------------------------------------------------------------------------
# axial colorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxialColoring:
    """One axial pattern: its structural case, the coloring, and the data
    needed to write down the exact value line.

    red_color / blue_color / yellow_color are ids in `coloring` (cases A/B);
    block_colors maps the four case-C blocks (11, 12, 21, 22) to ids.
    """

    case: str
    coloring: Coloring
    zero_block: tuple[int, ...] | None = None
    latin_block: LatinRectangleBlock | None = None
    split: tuple[int, int] | None = None
    rho: Fraction | None = None
    red_color: int | None = None
    blue_color: int | None = None
    yellow_color: int | None = None
    block_colors: tuple[int, int, int, int] | None = None


class AxialCatalog:
    """Axial colorings of one shape, deduplicated up to conjugacy and sorted
    by canonical form; supports canonical-form lookup of observed patterns."""

    def __init__(self, shape, entries):
        self.shape = shape
        self.entries = tuple(entries)
        self._by_canonical = {canonical_form(e.coloring): idx
                              for idx, e in enumerate(self.entries)}

    def __len__(self):
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, idx):
        return self.entries[idx]

    def index_of(self, e: AxialColoring) -> int:
        return self._by_canonical[canonical_form(e.coloring)]

    def match(self, c: Coloring) -> AxialColoring | None:
        idx = self._by_canonical.get(canonical_form(c))
        return None if idx is None else self.entries[idx]

    def export_json(self) -> str:
        items = []
        for e in self.entries:
            items.append({
                "case": e.case,
                "coloring": [list(row) for row in e.coloring.cells],
                "rho": None if e.rho is None else str(e.rho),
                "split": None if e.split is None else list(e.split),
                "verdict": classify_orbital_exotic(e.coloring),
            })
        return json.dumps(items, sort_keys=True, indent=2)


def _case_c_coloring(m, n, r, s) -> Coloring:
    grid = [[(0 if i < r else 2) + (0 if j < s else 1) for j in range(n)]
            for i in range(m)]
    return Coloring.from_rows(grid)


def _bordered_latin(case: str, L, z: int) -> AxialColoring:
    """Case A: the two-color Latin rectangle L (ids 0, 1) right of z
    forced-zero columns.  Case B, z forced-zero rows above L, is case A of
    L transposed, transposed back."""
    flip = (lambda g: list(zip(*g))) if case == "B" else list
    grid = flip([(2,) * z + row for row in flip(L)])
    col = Coloring.from_rows(grid).relabeled()
    ids = {a: b for row, new in zip(grid, col.cells) for a, b in zip(row, new)}
    m, n = col.m, col.n
    rows, cols = (range(z, m), range(n)) if case == "B" else (range(m), range(z, n))
    return AxialColoring(
        case=case, coloring=col, zero_block=tuple(range(z)) or None,
        latin_block=LatinRectangleBlock(
            rows=tuple(rows), cols=tuple(cols),
            colors=tuple(tuple(col.cells[i][j] for j in cols) for i in rows)),
        rho=Fraction(sum(L[0]), len(L[0])),
        red_color=ids[1], blue_color=ids[0], yellow_color=ids.get(2))


def check_axial_shape(shape):
    """Raise SearchBudgetError, as enumerate_axial does before any work, for
    more than MAX_AXIAL_CELLS cells, the only guard on the enumeration."""
    m, n = shape.m, shape.n
    if m * n > MAX_AXIAL_CELLS:
        raise SearchBudgetError(
            f"axial enumeration for {m}x{n} exceeds the {MAX_AXIAL_CELLS}-cell guard")


@lru_cache(maxsize=32)
def enumerate_axial(shape) -> AxialCatalog:
    """All axial colorings of the shape, up to conjugacy.  The returned
    catalog is cached per shape and must be treated as read-only.

    Case C runs over the block splits (r, s) with r <= m/2 and s <= n/2 (the
    other splits swap blocks, so they are conjugate to these); the split
    with r = m/2 and s = n/2 is skipped because its value line coincides
    with the coarser two-color Latin rectangle of the same block layout,
    and a branch follows the pattern with fewest colors.  Cases A and B run
    over conjugacy representatives of all two-color Latin rectangles,
    bordered by the forced-zero block when they do not fill the grid.  No
    two entries are conjugate, so the catalog is the entries sorted by
    canonical form.
    """
    check_axial_shape(shape)
    m, n = shape.m, shape.n
    raw: list[AxialColoring] = []

    for r in range(1, m // 2 + 1):
        for s in range(1, n // 2 + 1):
            if 2 * r == m and 2 * s == n:
                continue
            col = _case_c_coloring(m, n, r, s)
            raw.append(AxialColoring(
                case="C", coloring=col, split=(r, s),
                block_colors=(col.cells[0][0], col.cells[0][n - 1],
                              col.cells[m - 1][0], col.cells[m - 1][n - 1])))

    for q in range(2, n + 1):
        raw += [_bordered_latin("A", L, n - q) for L in _two_color_latin_reps(m, q)]
    for p in range(2, m):
        raw += [_bordered_latin("B", L, m - p) for L in _two_color_latin_reps(p, n)]

    return AxialCatalog(shape, sorted(raw, key=lambda e: canonical_form(e.coloring).cells))


# ---------------------------------------------------------------------------
# isotropy subgroups and the orbital / exotic split
# ---------------------------------------------------------------------------

@dataclass
class IsotropyReport:
    group_order: int
    generators: list[tuple[tuple[int, ...], tuple[int, ...]]]
    orbit_partition: tuple[frozenset, ...]
    verdict: str  # "Orbital" | "Exotic"


def isotropy_subgroup(c: Coloring) -> IsotropyReport:
    """All (sigma, tau) in S_m x S_n with color(sigma(i), tau(j)) =
    color(i, j), reported as order, a generating set, and the cell-orbit
    partition.

    The search loops over row permutations only.  A sigma belongs to the
    group's row image when the sigma-permuted columns are, as a multiset,
    the original columns; tau_sigma matches them up, equal columns in index
    order.  For that sigma the admissible tau are tau_sigma followed by any
    permutation within the groups of equal columns, so with S the set of
    such sigma:

    * order = |S| * prod(k!) over the groups of k equal columns;
    * generators = (sigma, tau_sigma) for each non-identity sigma in S, plus
      the transpositions of neighbouring equal columns;
    * orbit of (i, j) = {(sigma(i), k) : sigma in S, column k equal to
      column tau_sigma(j)}.

    With more rows than columns the search runs on the transpose, with
    sigma and tau swapped back, so it visits min(m, n)! permutations.  The
    verdict is Orbital when the cell orbits coincide with the color classes
    (the pattern equals the fixed set of its own isotropy group) and Exotic
    otherwise.
    """
    m, n = c.m, c.n
    if m > n:
        rep = isotropy_subgroup(Coloring(tuple(zip(*c.cells))))
        orbits = (frozenset((i, j) for j, i in orbit) for orbit in rep.orbit_partition)
        return IsotropyReport(group_order=rep.group_order,
                              generators=[(sigma, tau) for tau, sigma in rep.generators],
                              orbit_partition=tuple(sorted(orbits, key=sorted)),
                              verdict=rep.verdict)

    cols = [tuple(c.cells[i][j] for i in range(m)) for j in range(n)]
    groups: dict[tuple, list[int]] = {}
    for j, v in enumerate(cols):
        groups.setdefault(v, []).append(j)
    sorted_cols = sorted(cols)

    taus: dict[tuple, tuple] = {}
    for inv in permutations(range(m)):     # inv = sigma^-1: moved[j][sigma[i]] = cols[j][i]
        if tuple(map(cols[0].__getitem__, inv)) not in groups:
            continue    # most permutations already move column 0 off every column
        moved = [tuple(map(col.__getitem__, inv)) for col in cols]
        if sorted(moved) == sorted_cols:
            sigma = tuple(sorted(range(m), key=inv.__getitem__))
            pools = {v: iter(g) for v, g in groups.items()}
            taus[sigma] = tuple(next(pools[v]) for v in moved)

    order = len(taus)
    for g in groups.values():
        order *= factorial(len(g))
    gens = [(sigma, tau) for sigma, tau in taus.items() if sigma != tuple(range(m))]
    for g in groups.values():
        for a, b in zip(g, g[1:]):
            tau = list(range(n))
            tau[a], tau[b] = b, a
            gens.append((tuple(range(m)), tuple(tau)))

    orbits = {frozenset((sigma[i], k) for sigma, tau in taus.items()
                        for k in groups[cols[tau[j]]])
              for i in range(m) for j in range(n)}
    orbit_partition = tuple(sorted(orbits, key=sorted))
    colors = tuple(sorted(c.color_classes(), key=sorted))
    verdict = "Orbital" if orbit_partition == colors else "Exotic"
    return IsotropyReport(group_order=order, generators=gens,
                          orbit_partition=orbit_partition, verdict=verdict)


@lru_cache(maxsize=4096)
def classify_orbital_exotic(c: Coloring) -> str:
    """Orbital / Exotic verdict for an axial coloring."""
    if not is_axial_Vd(c):
        raise ValueError("coloring is not axial relative to the dissensus subspace")
    return isotropy_subgroup(c).verdict


# ---------------------------------------------------------------------------
# 4 x n sufficiency for exotic Latin rectangles
# ---------------------------------------------------------------------------

def column_pair_multiplicities(c: Coloring) -> dict[frozenset, int]:
    """For a two-color 4 x n Latin rectangle with 2+2 columns: how many
    columns carry each unordered {rows-of-one-color, complement} pair.
    Keyed by the pair, a frozenset of two frozen row sets."""
    if c.m != 4:
        raise ValueError("column multiplicities are defined for 4-row grids")
    if c.num_colors != 2:
        raise ValueError("need a two-color coloring")
    if not is_latin_rectangle(c.cells):
        raise ValueError("coloring is not a Latin rectangle")
    mu: dict[frozenset, int] = {}
    for j in range(c.n):
        rows0 = frozenset(i for i in range(4) if c.cells[i][j] == 0)
        if len(rows0) != 2:
            raise ValueError("columns must split 2+2 (equal color proportions)")
        key = frozenset({rows0, frozenset(range(4)) - rows0})
        mu[key] = mu.get(key, 0) + 1
    return mu


def column_type_counts(c: Coloring) -> dict[frozenset, int]:
    """Count of columns per column type, a type being the frozen set of rows
    carrying color 0 in that column."""
    counts: dict[frozenset, int] = {}
    for j in range(c.n):
        rows0 = frozenset(i for i in range(c.m) if c.cells[i][j] == 0)
        counts[rows0] = counts.get(rows0, 0) + 1
    return counts


def exotic_sufficient_4xn(c: Coloring) -> bool:
    """Sufficient test for a 4 x n equal-proportion two-color Latin rectangle
    to be exotic: two occurring complementary column pairs have different
    multiplicities.

    Within one pair the two complementary column types occur equally often
    (the pairing law), so the pair multiplicity is well defined.  The test
    is silent (False) when all occurring pairs tie, which includes the
    single-pair block patterns.
    """
    mu = column_pair_multiplicities(c)
    type_counts = column_type_counts(c)
    multiplicities = []
    for pair in mu:
        a, b = tuple(pair)
        cnt_a, cnt_b = type_counts.get(a, 0), type_counts.get(b, 0)
        if cnt_a != cnt_b:
            raise ValueError("pairing law violated: not a Latin rectangle?")
        multiplicities.append(cnt_a)
    return len(set(multiplicities)) >= 2


# ---------------------------------------------------------------------------
# exact axial value lines
# ---------------------------------------------------------------------------

def axial_values(a: AxialColoring, amplitude) -> list[list[Fraction]]:
    """The unique element of the pattern's line with the red (case A/B) or
    top-left block (case C) value equal to `amplitude`: the exact basis
    vector of dissensus_intersection_basis, scaled.  Exact rationals; all
    row and column sums are exactly zero."""
    amp = Fraction(amplitude)
    if amp == 0:
        raise ValueError("amplitude must be nonzero")
    if a.case in ("A", "B"):
        ref = a.red_color
    elif a.case == "C":
        ref = a.block_colors[0]
    else:
        raise ValueError(f"unknown case {a.case!r}")
    (line,) = dissensus_intersection_basis(a.coloring)
    scale = amp / line[ref]
    return [[line[col] * scale for col in row] for row in a.coloring.cells]


def axial_value_matrix(a: AxialColoring, amplitude: float) -> np.ndarray:
    """Float view of axial_values, for simulation and matching."""
    return np.array([[float(x) for x in row]
                     for row in axial_values(a, Fraction(amplitude))])


# ---------------------------------------------------------------------------
# stable equilibrium synthesis on any balanced coloring
# ---------------------------------------------------------------------------

@dataclass
class StablePolynomialMap:
    """Admissible map g(Z)_ij = f(z_ij) where f is the Hermite interpolant
    with f(v) = 0 and f'(v) = -1 at each prescribed level v.  Because each
    component depends only on its own node value, the map is admissible for
    any arrangement of arrows."""

    coeffs: tuple[Fraction, ...]  # ascending powers, exact
    levels: tuple[Fraction, ...]

    def field(self, Z: np.ndarray) -> np.ndarray:
        acc = np.zeros_like(Z, dtype=float)
        for coef in reversed(self.coeffs):
            acc = acc * Z + float(coef)
        return acc

    def slope(self, Z: np.ndarray) -> np.ndarray:
        """f'(Z) cellwise in floating point: the Jacobian of `field` at Z is
        diagonal, with these entries in row-major order."""
        acc = np.zeros_like(Z, dtype=float)
        for k in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * Z + float(k * self.coeffs[k])
        return acc

    def eval_exact(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for coef in reversed(self.coeffs):
            acc = acc * x + coef
        return acc

    def derivative_exact(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for k in range(len(self.coeffs) - 1, 0, -1):
            acc = acc * x + k * self.coeffs[k]
        return acc


@dataclass
class SynthesisReport:
    residual_max: float
    jacobian_eigenvalues: list[complex]
    max_eigenvalue_deviation: float
    exact_roots: bool
    exact_slopes: bool


def _hermite_double_nodes(levels: list[Fraction]) -> tuple[Fraction, ...]:
    """Newton-form Hermite interpolation with f(v)=0, f'(v)=-1 at every v,
    expanded to monomial coefficients, all exact."""
    nodes: list[Fraction] = []
    for v in levels:
        nodes.extend((v, v))
    N = len(nodes)
    # divided difference table with repeated nodes
    table = [[Fraction(0)] * N for _ in range(N)]
    for i in range(N):
        table[i][0] = Fraction(0)  # f(v) = 0
    for order in range(1, N):
        for i in range(N - order):
            if nodes[i + order] == nodes[i]:
                # only order 1 can hit this with doubled nodes
                table[i][order] = Fraction(-1)
            else:
                table[i][order] = (table[i + 1][order - 1] - table[i][order - 1]) \
                    / (nodes[i + order] - nodes[i])
    # expand newton form sum_k c_k prod_{l<k} (x - nodes[l])
    coeffs = [Fraction(0)] * N
    basis = [Fraction(1)]  # coefficients of prod so far
    for k in range(N):
        ck = table[0][k]
        for p, b in enumerate(basis):
            coeffs[p] += ck * b
        new_basis = [Fraction(0)] * (len(basis) + 1)
        for p, b in enumerate(basis):
            new_basis[p + 1] += b
            new_basis[p] -= nodes[k] * b
        basis = new_basis
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def synthesize_stable_admissible(c: Coloring, y) -> tuple[StablePolynomialMap, SynthesisReport]:
    """Build an admissible map with a linearly stable equilibrium exactly at
    the state y, whose synchrony pattern is the coloring c.

    y must be generic for c: entries are equal iff their cells share a
    color.  One polynomial f interpolates f(v) = 0, f'(v) = -1 at each of
    the distinct levels; the induced map acts cellwise, so the Jacobian at
    y is exactly minus the identity.  The report carries float-level
    residuals and the Jacobian's eigenvalues: each node's map reads only
    its own value, so the Jacobian at y is diag(f'(y_ij)), and its
    eigenvalues are f' evaluated in floating point at every cell.
    """
    if not is_balanced(c):
        raise ValueError("coloring must be balanced")
    y_arr = [[Fraction(v) for v in row] for row in
             (y.tolist() if isinstance(y, np.ndarray) else y)]
    if len(y_arr) != c.m or any(len(r) != c.n for r in y_arr):
        raise ValueError("state shape does not match coloring")
    level_of: dict[int, Fraction] = {}
    for i in range(c.m):
        for j in range(c.n):
            col = c.cells[i][j]
            if col in level_of:
                if level_of[col] != y_arr[i][j]:
                    raise ValueError("y is not generic: unequal values on one color")
            else:
                level_of[col] = y_arr[i][j]
    levels = [level_of[k] for k in range(c.num_colors)]
    if len(set(levels)) != len(levels):
        raise ValueError("y is not generic: two colors share a value")

    fmap = StablePolynomialMap(coeffs=_hermite_double_nodes(levels),
                               levels=tuple(levels))

    exact_roots = all(fmap.eval_exact(v) == 0 for v in levels)
    exact_slopes = all(fmap.derivative_exact(v) == -1 for v in levels)
    Zf = np.array([[float(v) for v in row] for row in y_arr])
    residual = float(np.abs(fmap.field(Zf)).max())
    eigs = fmap.slope(Zf).ravel()
    dev = float(np.abs(eigs + 1.0).max())
    report = SynthesisReport(residual_max=residual,
                             jacobian_eigenvalues=[complex(v) for v in eigs],
                             max_eigenvalue_deviation=dev,
                             exact_roots=exact_roots,
                             exact_slopes=exact_slopes)
    return fmap, report


# ---------------------------------------------------------------------------
# exhaustive coloring generation (for oracles and small-grid checks)
# ---------------------------------------------------------------------------

def all_colorings(m: int, n: int):
    """Every coloring of the m x n grid (all set partitions of the cells,
    as restricted-growth strings, relabeled row-major)."""
    N = m * n
    rgs = [0] * N
    maxv = [0] * N
    while True:
        yield Coloring(tuple(tuple(rgs[i * n + j] for j in range(n))
                             for i in range(m)))
        i = N - 1
        while i > 0 and rgs[i] == maxv[i - 1] + 1:
            i -= 1
        if i == 0:
            return
        rgs[i] += 1
        mv = maxv[i - 1]
        if rgs[i] > mv:
            mv = rgs[i]
        maxv[i] = mv
        for k in range(i + 1, N):
            rgs[k] = 0
            maxv[k] = mv
