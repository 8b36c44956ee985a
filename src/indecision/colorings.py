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
  of the rows column by column and prunes by the automorphisms it finds);
* structural enumeration of all axial colorings (dimension exactly 1),
  which come in three families:
    A: optional one-color column block forced to value 0, next to a
       two-color Latin rectangle on the remaining columns;
    B: the transpose arrangement (one-color row block on top);
    C: a 2 x 2 grid of one-color blocks;
  the Latin rectangles are generated doubly sorted (rows and columns
  non-increasing), row by row over the runs of equal partial columns,
  which leaves at least one per class, and the catalog keeps the first
  candidate of each canonical form; the only guard is MAX_AXIAL_CELLS on
  the grid size (CatalogTooLargeError past it), and every shape under it
  finishes (demos/08_axial_census.py prints the census);
* isotropy subgroups in S_m x S_n, found by backtracking over the row
  images of the shorter side with column-prefix pruning, their cell
  orbits, and the resulting orbital/exotic verdict (orbital = the pattern
  is exactly the fixed cells of its isotropy group);
* the 4-row sufficiency test for exotic two-color Latin rectangles via
  column-pair multiplicities;
* exact value assignments spanning each axial pattern's line;
* synthesis of an admissible map with a prescribed linearly stable
  equilibrium on any balanced coloring (Hermite interpolation in the node's
  own variable);
* every coloring of a grid (all_colorings), the generator of the
  exhaustive oracles the tests compare against.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, permutations, product
from math import factorial, gcd

import numpy as np

from .patterns import Coloring

__all__ = [
    "NotBalancedError",
    "CatalogTooLargeError",
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
    "enumerate_axial",
    "isotropy_subgroup",
    "classify_orbital_exotic",
    "column_pair_multiplicities",
    "column_type_counts",
    "exotic_sufficient_4xn",
    "axial_values",
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


class CatalogTooLargeError(ValueError):
    """enumerate_axial was asked for a grid of more than MAX_AXIAL_CELLS
    cells."""


# Largest grid (m * n cells) enumerate_axial accepts.  It bounds only the
# cost: every shape under it builds in a fraction of a second, while 8 x 8
# takes tens of seconds, nearly all of them in canonical_form.
MAX_AXIAL_CELLS = 42


# ---------------------------------------------------------------------------
# balance and the tiling normal form
# ---------------------------------------------------------------------------

def balance_witness(c: Coloring):
    """None when balanced, otherwise ((i1,j1), (i2,j2), kind) for one pair of
    same-colored cells with differing input multisets.

    Each cell is compared with the first cell of its color in row-major
    order: kind is "row" when their rows' color count vectors differ, else
    "column" when their columns' do.  A cell's diagonal inputs count
    total - row - column + own cell, so they agree whenever both of those
    do, and the diagonal kind is implied by the other two."""
    counts = _sum_constraints(c)
    rowcnt, colcnt = counts[:c.m], counts[c.m:]
    rep: dict[int, tuple[int, int]] = {}
    for i, row in enumerate(c.cells):
        for j, col in enumerate(row):
            ri, rj = rep.setdefault(col, (i, j))
            if rowcnt[i] != rowcnt[ri]:
                return ((ri, rj), (i, j), "row")
            if colcnt[j] != colcnt[rj]:
                return ((ri, rj), (i, j), "column")
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

    def axial_dimension_count(self) -> int:
        """sum of per-block color counts - (#row groups) - (#col groups) + 1."""
        return (sum(len(b.color_set) for b in self.blocks)
                - len(self.row_groups) - len(self.col_groups) + 1)


def tiling_decomposition(c: Coloring) -> RectangleTiling:
    """Decompose a balanced coloring into its grid of Latin rectangles.

    Row groups are the distinct row supports of the colors, column groups
    the distinct column supports, each sorted, and the groups are sorted.
    Every line holds some color, so the groups cover the lines; they
    partition them exactly when their sizes sum to m (rows) and n
    (columns), and then disjoint groups sort by their first line.  The
    coloring tiles when both partition and each (row group, column group)
    block is a Latin rectangle; distinct blocks then use disjoint colors.
    Raises NotBalancedError, with the witness of balance_witness, when
    either fails.
    """
    classes = c.color_classes()
    row_groups = sorted({tuple(sorted({i for i, _ in cls})) for cls in classes})
    col_groups = sorted({tuple(sorted({j for _, j in cls})) for cls in classes})
    if sum(map(len, row_groups)) == c.m and sum(map(len, col_groups)) == c.n:
        blocks = tuple(
            LatinRectangleBlock(rows=rs, cols=cs,
                                colors=tuple(tuple(c.cells[i][j] for j in cs) for i in rs))
            for rs in row_groups for cs in col_groups)
        if all(is_latin_rectangle(b.colors) for b in blocks):
            return RectangleTiling(blocks=blocks,
                                   conjugation=(sum(row_groups, ()), sum(col_groups, ())),
                                   row_groups=tuple(row_groups), col_groups=tuple(col_groups))
    witness = balance_witness(c)
    assert witness is not None, "tiling failed on a balanced coloring"
    raise NotBalancedError(witness)


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


def _exact_rref(rows: list[list[int]]):
    """Gauss-Jordan elimination of integer rows, in place and in integers;
    returns the pivot column list.  Each pivot row ends with zeros in every
    other pivot column, so dividing it by its pivot gives the row of the
    reduced row echelon form."""
    piv_cols = []
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        piv = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        top = rows[r]
        for i, row in enumerate(rows):
            f = row[col]
            if i != r and f:
                new = [top[col] * a - f * b for a, b in zip(row, top)]
                g = gcd(*new) or 1
                rows[i] = [x // g for x in new]
        piv_cols.append(col)
        r += 1
    return piv_cols


def _count_rows(c: Coloring) -> list[list[int]]:
    # equal count rows span nothing new
    return [list(row) for row in dict.fromkeys(map(tuple, _sum_constraints(c)))]


def dim_Vd_intersection(c: Coloring) -> int:
    """Dimension (exact, over the rationals) of the space of color-constant
    states whose row sums and column sums all vanish: the number of colors
    less the rank of the count rows."""
    return c.num_colors - len(_exact_rref(_count_rows(c)))


def dissensus_intersection_basis(c: Coloring) -> list[tuple[Fraction, ...]]:
    """Exact basis (per-color value vectors) of the same space, read off the
    reduced row echelon form, which is unique."""
    mat = _count_rows(c)
    piv_cols = _exact_rref(mat)
    K = c.num_colors
    free = [k for k in range(K) if k not in piv_cols]
    basis = []
    for fc in free:
        vec = [Fraction(0)] * K
        vec[fc] = Fraction(1)
        for r, pc in enumerate(piv_cols):
            vec[pc] = Fraction(-mat[r][fc], mat[r][pc])
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

def _least_chunks(col, cells, labels, bound):
    """The least way to read one column under an ordered row partition, and
    every (refined cells, labels) pair that reads it so.

    `cells` are the row cells top to bottom; rows within a cell are still
    unordered, and `labels` maps the colors met so far to their dense
    labels.  Within a cell the rows with known colors come first, by label,
    then the new colors, largest count first, each taking the next free
    label.  New colors of equal count may take their labels in either order.
    The cells are read top to bottom, keeping every labelling whose chunk so
    far is least, and each cell is split into the runs of rows that share a
    label.  Returns (None, []) as soon as the chunk so far is above
    `bound` (None bounds nothing)."""
    if labels.keys() >= set(col):     # no new color: one reading, each cell in label order
        chunk, split = [], []
        for cell in cells:
            runs: dict[int, list[int]] = {}
            for i in cell:
                runs.setdefault(labels[col[i]], []).append(i)
            for label in sorted(runs):
                chunk += [label] * len(runs[label])
                split.append(tuple(runs[label]))
            if bound is not None and tuple(chunk) > bound[:len(chunk)]:
                return None, []
        return tuple(chunk), [(tuple(split), labels)]
    chunk, options = (), [((), labels)]
    for cell in cells:
        if len(cell) == 1:      # one row: its color's label, or the next free one
            v = col[cell[0]]
            if v in options[0][1]:
                least = (min(known[v] for _, known in options),)
                kept = [(split + (cell,), known) for split, known in options
                        if known[v] == least[0]]
            else:
                least = (len(options[0][1]),)
                kept = [(split + (cell,), {**known, v: least[0]}) for split, known in options]
        else:
            runs: dict[int, list[int]] = {}
            for i in cell:
                runs.setdefault(col[i], []).append(i)
            tiers: dict[int, list[int]] = {}
            for v, rows in runs.items():
                if v not in options[0][1]:
                    tiers.setdefault(len(rows), []).append(v)
            tied = [list(permutations(vs)) for _, vs in sorted(tiers.items(), reverse=True)]
            least, kept = None, []
            for split, base in options:
                for order in product(*tied):
                    known = base
                    if tied:
                        known = dict(base)
                        for v in chain.from_iterable(order):
                            known[v] = len(known)
                    head = sorted(runs, key=known.__getitem__)
                    part = tuple(known[v] for v in head for _ in runs[v])
                    if least is None or part < least:
                        least, kept = part, []
                    if part == least:
                        kept.append((split + tuple(tuple(runs[v]) for v in head), known))
        chunk, options = chunk + least, kept
        if bound is not None and chunk > bound[:len(chunk)]:
            return None, []
    return chunk, options


def _least_word(cols):
    """The least column-major word of the grid with columns `cols`, by the
    search canonical_form describes."""
    m, n = len(cols[0]), len(cols)
    least_at = {0: ()}      # least word met so far, by length
    first = None            # word, path, rows, columns, labels: first leaf of that word
    autos = []              # (sigma, tau, pi) read off leaves with equal words

    def orbits(children, fixing):
        # children and their images under `fixing`, keyed by column content
        seen = {(cols[j], new) for j, new in children}
        if not fixing:
            return seen
        todo = list(children)
        while todo:
            j, new = todo.pop()
            for tau, pi in fixing:
                image = tuple(pi[v] for v in new)
                if (cols[tau[j]], image) not in seen:
                    seen.add((cols[tau[j]], image))
                    todo.append((tau[j], image))
        return seen

    def search(cells, labels, remaining, word, placed, path):
        # returns the depth to unwind to when a leaf repeats the least word
        nonlocal first
        if not remaining:
            rows = [i for cell in cells for i in cell]
            if first is None or word != first[0]:
                first = (word, path, rows, placed, labels)
                return None
            _, path0, rows0, placed0, labels0 = first
            sigma, tau = [0] * m, [0] * n
            for a, b in zip(rows0, rows):
                sigma[a] = b
            for a, b in zip(placed0, placed):
                tau[a] = b
            color = {k: v for v, k in labels.items()}
            autos.append((sigma, tau, {v: color[k] for v, k in labels0.items()}))
            return next(d for d, (a, b) in enumerate(zip(path, path0)) if a != b)
        least, kept, tried = None, [], set()
        for j in remaining:
            if cols[j] in tried:
                continue
            tried.add(cols[j])
            chunk, options = _least_chunks(cols[j], cells, labels, least)
            if chunk is None:
                continue
            if least is None or chunk < least:
                least, kept = chunk, []
            if chunk == least:
                kept += [(j, split, known) for split, known in options]
        prefix = word + least
        if prefix > least_at.get(len(prefix), prefix):
            return None
        least_at[len(prefix)] = prefix
        done, covered, fixing, used = [], set(), [], 0
        for k, (j, split, known) in enumerate(kept):
            new = tuple(known)[len(labels):]
            if used < len(autos):
                used = len(autos)
                cell_of = {i: c for c, cell in enumerate(cells) for i in cell}
                fixing = [(tau, pi) for sigma, tau, pi in autos
                          if all(tau[x] == x for x in placed)
                          and all(cell_of[sigma[i]] == c for i, c in cell_of.items())]
                covered = orbits(done, fixing)
            if (cols[j], new) in covered:
                continue
            back = search(split, known, tuple(x for x in remaining if x != j),
                          prefix, placed + (j,), path + (k,))
            if back is not None and back < len(path):
                return back
            done.append((j, new))
            covered |= orbits([(j, new)], fixing)
        return None

    search((tuple(range(m)),), {}, tuple(range(n)), (), (), ())
    return least_at[m * n]


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
    the columns placed.  A node keeps only the columns, and the orders of
    tied new colors, that give its least next chunk (identical columns are
    tried once per node), and splits each row cell by the labels it just
    got, so rows are individualised only where color counts tie.  A node
    whose word is above the least word of the same length met so far is
    dropped.

    Two leaves with the same word give an automorphism (sigma, tau, pi):
    sigma maps the one leaf's row order onto the other's, tau its column
    order and pi its labels.  The search prunes by the automorphisms it
    finds (McKay, 1981).  One fixes a node when tau fixes its placed columns
    and sigma keeps each of its row cells (pi then fixes its labels), and
    it maps the node's subtrees onto each other, words unchanged.  So a node
    skips every child in the orbit of a child already searched, under the
    automorphisms found that fix the node.  And a leaf that repeats the
    least word ends the search below the deepest node it shares with the
    first leaf of that word: the subtree holding it is the image of the
    first leaf's, already searched.
    """
    word = _least_word(list(zip(*c.cells)))
    return Coloring.from_rows([word[i::c.m] for i in range(c.m)])


# ---------------------------------------------------------------------------
# two-color Latin rectangles
# ---------------------------------------------------------------------------

def _two_color_latin_blocks(p: int, q: int) -> list[tuple[tuple[int, ...], ...]]:
    """The doubly sorted p x q 0/1 arrays with constant row sums a <= q/2 and
    constant column sums, both symbols present, as tuples of row tuples.
    Doubly sorted means rows non-increasing from top to bottom and columns
    non-increasing from left to right, both read as binary words.

    Every class under row permutations, column permutations and symbol swap
    has a member here: the swap maps a to q - a, and sorting the rows, then
    the columns, and so on, never lowers the row-major word, so it stops at
    a doubly sorted array (Lubiw, SIAM J. Comput. 1987).  The first array of
    a class in this order has the smallest a and, for that a, the largest
    row-major word of the class.

    With b ones per column, row 0 is a ones then zeros: the largest row.
    The search is depth first, one row at a time, and its state is the runs
    of equal partial columns, each as (width, ones so far).  A middle row
    puts k ones at the head of each run, which keeps the columns
    non-increasing; the k's sum to a, k = 0 on a run that already holds b
    ones, k = width on a run that would otherwise miss b, and k > 0 on the
    first run short of b: the row's leading zeros are zeros in every later
    row, which is at most this one.  Spreading a over the runs, each k
    downwards, earlier runs slowest, never leaving more than the later runs
    can take, gives the rows in descending binary order; a row is kept when
    it is at most the row above.  The last row is forced to b less the ones
    so far, and kept when it is 0/1 and at most the row above."""
    out = []

    def grow(rows, runs, a, b):
        left = p - 1 - len(rows)      # rows still to come after the next one
        if not left:
            if all(0 <= b - c <= 1 for _, c in runs):
                last = tuple(b - c for w, c in runs for _ in range(w))
                if last <= rows[-1]:
                    out.append(rows + (last,))
            return
        spans = [(0, 0) if c == b else (w, w) if c < b - left else (0, w) for w, c in runs]
        first = next(i for i, (_, c) in enumerate(runs) if c < b)
        spans[first] = (max(spans[first][0], 1), spans[first][1])
        # the most ones that runs i, i + 1, ... can take
        room = list(accumulate((hi for _, hi in reversed(spans)), initial=0))[::-1]

        def spread(i, rest, row, next_runs):
            if i == len(runs):
                if row <= rows[-1]:
                    grow(rows + (row,), next_runs, a, b)
                return
            (w, c), (lo, hi) = runs[i], spans[i]
            for k in range(min(hi, rest), max(lo, rest - room[i + 1]) - 1, -1):
                spread(i + 1, rest - k, row + (1,) * k + (0,) * (w - k),
                       next_runs + [run for run in ((k, c + 1), (w - k, c)) if run[0]])

        spread(0, a, (), [])

    for a in range(1, q // 2 + 1):
        b, rem = divmod(a * p, q)
        if not rem:
            grow(((1,) * a + (0,) * (q - a),), [(a, 1), (q - a, 0)], a, b)
    return out


# ---------------------------------------------------------------------------
# axial colorings
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AxialColoring:
    """One axial pattern: its structural case, the coloring, and the one
    number the case adds to it.  Cases A and B carry rho, the share of each
    row of the two-color Latin block held by its red color; case C carries
    split, the (r, s) size of its top-left block.

    The coloring numbers its colors in order of first appearance, row by
    row, which fixes every role: in cases A and B, color 0 is the
    forced-zero block when there is one (three colors), and the next id is
    red, the other Latin color blue; in case C, colors 0, 1, 2, 3 are the
    top-left, top-right, bottom-left and bottom-right blocks.
    """

    case: str
    coloring: Coloring
    split: tuple[int, int] | None = None
    rho: Fraction | None = None


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
    """Case A: the two-color Latin rectangle L (ids 0, 1; red is 1) right
    of z forced-zero columns.  Case B, z forced-zero rows above L, is case A
    of L transposed, transposed back.  The zero block takes raw id 2 so
    that the grid is a Coloring before relabeling."""
    flip = (lambda g: list(zip(*g))) if case == "B" else list
    grid = flip([(2,) * z + row for row in flip(L)])
    return AxialColoring(case=case, coloring=Coloring.from_rows(grid).relabeled(),
                         rho=Fraction(sum(L[0]), len(L[0])))


@lru_cache(maxsize=32)
def enumerate_axial(shape) -> AxialCatalog:
    """All axial colorings of the shape, up to conjugacy.  The returned
    catalog is cached per shape and must be treated as read-only.

    Case C runs over the block splits (r, s) with r <= m/2 and s <= n/2 (the
    other splits swap blocks, so they are conjugate to these); the split
    with r = m/2 and s = n/2 is skipped because its value line coincides
    with the coarser two-color Latin rectangle of the same block layout,
    and a branch follows the pattern with fewest colors.  Cases A and B run
    over the doubly sorted two-color Latin rectangles of
    _two_color_latin_blocks, bordered by the forced-zero block when they do
    not fill the grid.  Several of these can be conjugate; the catalog keeps
    the first candidate of each canonical form and sorts the kept entries
    by canonical form.  A case C entry records its split, a case A or B
    entry the rho of its Latin block; the coloring fixes the rest.

    A shape of more than MAX_AXIAL_CELLS cells raises CatalogTooLargeError
    before any work.
    """
    m, n = shape.m, shape.n
    if m * n > MAX_AXIAL_CELLS:
        raise CatalogTooLargeError(
            f"axial enumeration for {m}x{n} exceeds the {MAX_AXIAL_CELLS}-cell guard")
    raw: list[AxialColoring] = []

    for r in range(1, m // 2 + 1):
        for s in range(1, n // 2 + 1):
            if 2 * r == m and 2 * s == n:
                continue
            raw.append(AxialColoring(case="C", coloring=_case_c_coloring(m, n, r, s),
                                     split=(r, s)))

    for q in range(2, n + 1):
        raw += [_bordered_latin("A", L, n - q) for L in _two_color_latin_blocks(m, q)]
    for p in range(2, m):
        raw += [_bordered_latin("B", L, m - p) for L in _two_color_latin_blocks(p, n)]

    first: dict[Coloring, AxialColoring] = {}
    for e in raw:
        first.setdefault(canonical_form(e.coloring), e)
    return AxialCatalog(shape, [first[k] for k in sorted(first, key=lambda c: c.cells)])


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

    The search runs over row permutations only.  A sigma belongs to the
    group's row image when the sigma-permuted columns are, as a multiset,
    the original columns; tau_sigma matches them up, equal columns in index
    order.  For that sigma the admissible tau are tau_sigma followed by any
    permutation within the groups of equal columns, so with S the set of
    such sigma:

    * order = |S| * prod(k!) over the groups of k equal columns;
    * generators = (sigma, tau_sigma) for each non-identity sigma in S, in
      lexicographic order of sigma^-1, plus the transpositions of
      neighbouring equal columns;
    * orbit of (i, j) = {(sigma(i), k) : sigma in S, column k equal to
      column tau_sigma(j)}, built once, from its first cell in row-major
      order.

    S is found by backtracking (Leon, 1991): sigma^-1 is extended one row
    at a time, in lexicographic order, and a partial sigma^-1 is dropped
    unless the moved columns' prefixes of its length are, as a multiset,
    the original columns' prefixes of that length.  Prefixes are base-K
    integers, compared as sorted lists.  With more rows than columns the
    search runs on the transpose, with sigma and tau swapped back.  The
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

    K = c.num_colors
    prefixes = [[0] * n]    # per length d: each column's first d entries as a base-K integer
    for row in c.cells:
        prefixes.append([x * K + v for x, v in zip(prefixes[-1], row)])
    targets = [sorted(codes) for codes in prefixes]
    full = prefixes[m]
    groups: dict[int, list[int]] = {}
    for j, v in enumerate(full):
        groups.setdefault(v, []).append(j)
    by_column = sorted(range(n), key=full.__getitem__)     # stable: equal columns in index order

    taus: dict[tuple, tuple] = {}
    inv = []    # sigma^-1 so far: row k of the moved grid is row inv[k]

    def extend(moved):
        target = targets[len(inv) + 1]
        for r, row in enumerate(c.cells):
            if r in inv:
                continue
            grown = [x * K + v for x, v in zip(moved, row)]
            if sorted(grown) != target:
                continue
            inv.append(r)
            if len(inv) < m:
                extend(grown)
            else:
                sigma, tau = [0] * m, [0] * n
                for i, x in enumerate(inv):
                    sigma[x] = i
                for a, b in zip(sorted(range(n), key=grown.__getitem__), by_column):
                    tau[a] = b
                taus[tuple(sigma)] = tuple(tau)
            inv.pop()

    extend(prefixes[0])
    order = len(taus)
    for g in groups.values():
        order *= factorial(len(g))
    gens = [(sigma, tau) for sigma, tau in taus.items() if sigma != tuple(range(m))]
    for g in groups.values():
        for a, b in zip(g, g[1:]):
            tau = list(range(n))
            tau[a], tau[b] = b, a
            gens.append((tuple(range(m)), tuple(tau)))

    orbits, covered = [], set()
    for i in range(m):
        for j in range(n):
            if (i, j) not in covered:
                orbits.append(frozenset((sigma[i], k) for sigma, tau in taus.items()
                                        for k in groups[full[tau[j]]]))
                covered |= orbits[-1]
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
    for rows0, count in column_type_counts(c).items():
        if len(rows0) != 2:
            raise ValueError("columns must split 2+2 (equal color proportions)")
        key = frozenset({rows0, frozenset(range(4)) - rows0})
        mu[key] = mu.get(key, 0) + count
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
    (the pairing law): every row holds n/2 cells of color 0, so with x_S
    the count of columns whose color-0 rows are S, the row equations
    1 + 2 - 3 - 4 give x_12 = x_34, and likewise for the other two pairs.
    The test is silent (False) when all occurring pairs tie, which includes
    the single-pair block patterns.
    """
    mu = column_pair_multiplicities(c)
    return len(set(mu.values())) >= 2


# ---------------------------------------------------------------------------
# exact axial value lines
# ---------------------------------------------------------------------------

def axial_values(a: AxialColoring, amplitude) -> list[list[Fraction]]:
    """The unique element of the pattern's line whose first nonzero color,
    by id, has value `amplitude`: the red color in cases A and B, the
    top-left block in case C.  It is the exact basis vector of
    dissensus_intersection_basis, scaled.  Exact rationals; all row and
    column sums are exactly zero."""
    amp = Fraction(amplitude)
    if amp == 0:
        raise ValueError("amplitude must be nonzero")
    (line,) = dissensus_intersection_basis(a.coloring)
    scale = amp / next(v for v in line if v)
    return [[line[col] * scale for col in row] for row in a.coloring.cells]


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
        return _horner([float(c) for c in self.coeffs], Z, np.zeros_like(Z, dtype=float))

    def slope(self, Z: np.ndarray) -> np.ndarray:
        """f'(Z) cellwise in floating point: the Jacobian of `field` at Z is
        diagonal, with these entries in row-major order."""
        return _horner([float(c) for c in self._slope_coeffs()], Z,
                       np.zeros_like(Z, dtype=float))

    def eval_exact(self, x: Fraction) -> Fraction:
        return _horner(self.coeffs, x, Fraction(0))

    def derivative_exact(self, x: Fraction) -> Fraction:
        return _horner(self._slope_coeffs(), x, Fraction(0))

    def _slope_coeffs(self) -> list[Fraction]:
        """Ascending coefficients k c_k of f', exact."""
        return [k * c for k, c in enumerate(self.coeffs) if k]


def _horner(coeffs, x, acc):
    """The polynomial with ascending coeffs at x by Horner's rule from acc = 0."""
    for coef in reversed(coeffs):
        acc = acc * x + coef
    return acc


@dataclass
class SynthesisReport:
    residual_max: float
    jacobian_eigenvalues: list[complex]
    max_eigenvalue_deviation: float
    exact_roots: bool
    exact_slopes: bool


def _hermite_double_nodes(levels: list[Fraction]) -> tuple[Fraction, ...]:
    """Exact ascending coefficients of the Hermite interpolant with f(v) = 0
    and f'(v) = -1 at every level v, in closed form:

        f = -sum_k P * P_k / P_k(v_k)^2,  P = prod_v (x - v),  P_k = P / (x - v_k).

    At v_j, P and every P_k with k != j vanish, so f(v_j) = 0 and only
    P'(v_j) * P_j(v_j) = P_j(v_j)^2 is left in f'(v_j).  The degree is below
    twice the number of levels, so f is the unique interpolant."""
    def times(poly, v):     # poly * (x - v)
        return [-v * poly[0]] + [a - v * b for a, b in zip(poly, poly[1:])] + [poly[-1]]

    P = [Fraction(1)]
    for v in levels:
        P = times(P, v)
    coeffs = [Fraction(0)] * (2 * len(levels))
    for k, vk in enumerate(levels):
        Pk, at = [Fraction(1)], Fraction(1)
        for j, v in enumerate(levels):
            if j != k:
                Pk, at = times(Pk, v), at * (vk - v)
        for i, a in enumerate(P):
            for j, b in enumerate(Pk):
                coeffs[i + j] -= a * b / (at * at)
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
    values = [{y_arr[i][j] for i, j in cls} for cls in c.color_classes()]
    if any(len(v) > 1 for v in values):
        raise ValueError("y is not generic: unequal values on one color")
    levels = [level for (level,) in values]
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
