import hashlib
import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from indecision import (
    CatalogTooLargeError,
    Coloring,
    NetworkShape,
    NotBalancedError,
    all_colorings,
    axial_values,
    canonical_form,
    classify_orbital_exotic,
    column_pair_multiplicities,
    column_type_counts,
    dim_Vd_intersection,
    dissensus_intersection_basis,
    enumerate_axial,
    exotic_sufficient_4xn,
    is_axial_Vd,
    is_balanced,
    is_latin_rectangle,
    isotropy_subgroup,
    quantize_to_coloring,
    synthesize_stable_admissible,
    tiling_decomposition,
)
from indecision import colorings
from helpers import (
    EXOTIC_4X6,
    EXOTIC_4X6_GENERATORS,
    bordered_latin_roles,
    brute_force_axial,
    closure_pairs,
    corner_colors,
    indicator_key,
    line_of,
    preserves_coloring,
    random_balanced_coloring,
    random_generic_levels,
    reference_canonical_form,
    reference_hermite_double_nodes,
    sample_balanced_coloring,
    two_color_latin_indicators,
)

# 3x6 Latin rectangle with three colors: two columns of each cyclic shift
LATIN_3X6 = Coloring.from_rows(
    [[(k + i) % 3 for k in (0, 0, 1, 1, 2, 2)] for i in range(3)])

# 3x4 with every color once per column, but unbalanced rows
COLUMN_ONLY_3X4 = Coloring.from_rows([[0, 1, 2, 2], [2, 0, 1, 1], [1, 2, 0, 0]])

CHECKER_2X2 = Coloring.from_rows([[0, 1], [1, 0]])


# ---------------------------------------------------------------------------
# Latin rectangles and balance
# ---------------------------------------------------------------------------

def test_latin_rectangle_checker():
    assert is_latin_rectangle(CHECKER_2X2)


def test_latin_rectangle_3x6():
    assert is_latin_rectangle(LATIN_3X6)
    # each color twice per row, once per column
    for row in LATIN_3X6.cells:
        assert sorted(row) == [0, 0, 1, 1, 2, 2]


def test_latin_rectangle_column_only_counterexample():
    assert not is_latin_rectangle(COLUMN_ONLY_3X4)


def test_balance_constant_coloring():
    assert is_balanced(Coloring.from_rows([[0] * 4] * 3))


def test_balance_3x6_latin():
    assert is_balanced(LATIN_3X6)


def test_balance_column_only_fails():
    assert not is_balanced(COLUMN_ONLY_3X4)


def test_balance_agrees_with_tiling_exhaustively():
    for m, n in ((2, 2), (2, 3), (3, 3), (2, 4)):
        for c in all_colorings(m, n):
            balanced = is_balanced(c)
            try:
                tiling_decomposition(c)
                tiled = True
            except NotBalancedError as err:
                tiled = False
                # the witness must be a genuine violation
                (i1, j1), (i2, j2), _ = err.witness
                assert c.cells[i1][j1] == c.cells[i2][j2]
            assert balanced == tiled


def test_balance_agrees_with_tiling_sampled():
    rng = np.random.default_rng(21)
    for m, n in ((2, 5), (3, 4), (2, 6)):
        N = m * n
        for _ in range(4000):
            rgs = [0]
            for _ in range(N - 1):
                rgs.append(int(rng.integers(0, max(rgs) + 2)))
            c = Coloring(tuple(tuple(rgs[i * n + j] for j in range(n))
                               for i in range(m)))
            balanced = is_balanced(c)
            try:
                tiling_decomposition(c)
                tiled = True
            except NotBalancedError:
                tiled = False
            assert balanced == tiled


def test_tiling_of_constant_coloring():
    t = tiling_decomposition(Coloring.from_rows([[0] * 3] * 2))
    assert len(t.blocks) == 1
    assert t.blocks[0].color_set == {0}
    assert t.axial_dimension_count() == 0


def test_tiling_blocks_are_latin_with_disjoint_colors():
    # zero block next to a two-color Latin rectangle
    c = Coloring.from_rows([[0, 0, 1, 2], [0, 0, 2, 1]])
    t = tiling_decomposition(c)
    assert len(t.blocks) == 2
    seen = set()
    for b in t.blocks:
        assert is_latin_rectangle(b.colors)
        assert not (b.color_set & seen)
        seen |= b.color_set


def test_tiling_conjugation_makes_blocks_contiguous():
    # interleave the zero block columns and check the conjugating column perm
    c = Coloring.from_rows([[1, 0, 2, 0], [2, 0, 1, 0]])
    t = tiling_decomposition(c)
    row_perm, col_perm = t.conjugation
    regrouped = [[c.cells[i][j] for j in col_perm] for i in row_perm]
    # after conjugation the column groups are contiguous
    groups = [cols for cols in t.col_groups]
    width0 = len(groups[0])
    colors_left = {row[j] for row in regrouped for j in range(width0)}
    colors_right = {row[j] for row in regrouped for j in range(width0, c.n)}
    assert not (colors_left & colors_right)


# ---------------------------------------------------------------------------
# dissensus-intersection dimension
# ---------------------------------------------------------------------------

def test_dim_constant_coloring_is_zero():
    assert dim_Vd_intersection(Coloring.from_rows([[0] * 3] * 3)) == 0


def test_dim_checker_is_one():
    assert dim_Vd_intersection(CHECKER_2X2) == 1


def test_dim_matches_tiling_count_exhaustive():
    for m, n in ((2, 2), (2, 3), (3, 3), (2, 4)):
        for c in all_colorings(m, n):
            if is_balanced(c):
                t = tiling_decomposition(c)
                assert dim_Vd_intersection(c) == t.axial_dimension_count()


def test_dim_matches_tiling_count_random_tilings():
    rng = np.random.default_rng(31)
    for m, n in ((3, 4), (4, 4), (2, 8), (3, 5), (4, 3), (2, 6)):
        for _ in range(30):
            c = random_balanced_coloring(m, n, rng)
            assert is_balanced(c)
            t = tiling_decomposition(c)
            assert dim_Vd_intersection(c) == t.axial_dimension_count()


def test_axiality_examples():
    assert is_axial_Vd(CHECKER_2X2)
    # full-width two-color pattern on 2x4 (half red per row and column)
    assert is_axial_Vd(Coloring.from_rows([[0, 0, 1, 1], [1, 1, 0, 0]]))
    assert not is_axial_Vd(Coloring.from_rows([[0] * 4] * 2))


def test_two_axial_patterns_share_one_line():
    # a 3-color zero-block pattern and its 4-color refinement cut the same
    # one-dimensional slice out of the doubly-zero-sum subspace
    left = Coloring.from_rows([[0, 1, 2, 2], [1, 0, 2, 2]])
    right = Coloring.from_rows([[0, 1, 2, 3], [1, 0, 2, 3]])
    assert is_axial_Vd(left) and is_axial_Vd(right)
    assert line_of(left) == line_of(right)


# ---------------------------------------------------------------------------
# canonical form
# ---------------------------------------------------------------------------

def test_canonical_form_invariant_under_conjugation():
    rng = np.random.default_rng(41)
    for c in (LATIN_3X6, COLUMN_ONLY_3X4, EXOTIC_4X6):
        can = canonical_form(c)
        for _ in range(10):
            sigma = list(rng.permutation(c.m))
            tau = list(rng.permutation(c.n))
            conj = Coloring.from_rows([[c.cells[sigma[i]][tau[j]]
                                        for j in range(c.n)] for i in range(c.m)])
            assert canonical_form(conj) == can


def test_canonical_form_idempotent():
    for c in (LATIN_3X6, EXOTIC_4X6, CHECKER_2X2):
        assert canonical_form(canonical_form(c)) == canonical_form(c)


def test_canonical_form_separates_nonconjugate():
    a = Coloring.from_rows([[0, 0, 1, 1], [1, 1, 0, 0]])
    b = Coloring.from_rows([[0, 1, 0, 1], [1, 0, 1, 0]])  # same up to column perm
    c = Coloring.from_rows([[0, 0, 0, 1], [1, 1, 1, 0]])  # genuinely different
    assert canonical_form(a) == canonical_form(b)
    assert canonical_form(a) != canonical_form(c)


def test_canonical_classes_of_2x2_match_hand_count():
    # 15 cell partitions of the 2x2 grid fall into 9 conjugacy classes:
    # 1 constant, 4 two-color (corner, rows, columns, diagonal),
    # 3 three-color (pair in a row, in a column, on a diagonal), 1 all-distinct
    classes = {canonical_form(c) for c in all_colorings(2, 2)}
    assert len(classes) == 9


def test_canonical_form_of_8x8_constant_coloring():
    # 8! * 8! conjugates, all equal: the search never splits the one row cell
    big = Coloring.from_rows([[0] * 8] * 8)
    assert canonical_form(big) == big


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (2, 4), (4, 2), (3, 3)])
def test_canonical_form_matches_reference_exhaustively(m, n):
    for c in all_colorings(m, n):
        assert canonical_form(c) == reference_canonical_form(c), c


def test_canonical_form_matches_reference_on_catalogs():
    shapes = [(m, n) for m in range(2, 8) for n in range(2, 24 // m + 1)]
    for m, n in shapes + [(4, 8), (5, 5), (5, 6), (6, 6)]:
        for e in enumerate_axial(NetworkShape(m, n)):
            assert canonical_form(e.coloring) == reference_canonical_form(e.coloring), (m, n)


def test_canonical_form_matches_reference_on_random_balanced_colorings():
    rng = np.random.default_rng(61)
    for _ in range(300):
        m, n = (int(k) for k in rng.integers(2, 7, size=2))
        c = random_balanced_coloring(m, n, rng)
        assert canonical_form(c) == reference_canonical_form(c), c


# ---------------------------------------------------------------------------
# axial enumeration
# ---------------------------------------------------------------------------

def test_enumerate_axial_small_counts():
    expected = {(2, 2): 1, (2, 3): 2, (3, 3): 2, (2, 4): 3}
    for (m, n), count in expected.items():
        cat = enumerate_axial(NetworkShape(m, n))
        assert len(cat) == count


def test_enumerate_axial_matches_brute_force():
    for m, n in ((2, 2), (2, 3), (3, 3), (2, 4)):
        cat = enumerate_axial(NetworkShape(m, n))
        enumerated = {canonical_form(e.coloring) for e in cat}
        assert enumerated == brute_force_axial(m, n)


def test_enumerate_axial_entries_are_axial():
    for m, n in ((2, 4), (3, 4), (4, 6)):
        for e in enumerate_axial(NetworkShape(m, n)):
            assert is_axial_Vd(e.coloring)


def test_enumerate_axial_2xn_structure():
    # on two rows every two-color Latin block is a half-and-half pattern
    for n in (4, 6):
        cat = enumerate_axial(NetworkShape(2, n))
        for e in cat:
            if e.case == "A":
                assert e.rho == Fraction(1, 2)
                q = len(bordered_latin_roles(e)[3].cols)
                assert q % 2 == 0
            assert e.case != "B"


def test_enumerate_axial_3xn_case_a_thirds():
    # rho for the widest 3-row Latin blocks is 1/3 (or 2/3 by relabeling)
    cat = enumerate_axial(NetworkShape(3, 6))
    rhos = {e.rho for e in cat
            if e.case == "A" and len(bordered_latin_roles(e)[3].cols) == 6}
    assert rhos <= {Fraction(1, 3), Fraction(2, 3)}
    assert rhos


def test_enumerate_axial_4x6_content():
    cat = enumerate_axial(NetworkShape(4, 6))
    assert len(cat) == 14
    verdicts = [classify_orbital_exotic(e.coloring) for e in cat]
    assert verdicts.count("Exotic") == 1
    # the known exotic pattern is the exotic entry
    idx = verdicts.index("Exotic")
    assert canonical_form(cat[idx].coloring) == canonical_form(EXOTIC_4X6)


def test_no_exotics_with_fewer_than_four_rows_and_columns():
    for m, n in ((2, 5), (2, 6), (3, 4), (3, 6), (4, 3), (5, 2)):
        for e in enumerate_axial(NetworkShape(m, n)):
            assert classify_orbital_exotic(e.coloring) == "Orbital", (m, n, e)


def test_enumerate_axial_guard(monkeypatch):
    # the guard raises before any block is generated
    def no_blocks(p, q):
        raise AssertionError("generated blocks over the guard")
    monkeypatch.setattr(colorings, "_two_color_latin_blocks", no_blocks)
    with pytest.raises(CatalogTooLargeError) as exc:
        enumerate_axial(NetworkShape(7, 7))
    assert isinstance(exc.value, ValueError)


@pytest.mark.parametrize("m, n, size", [(2, 13, 12), (3, 12, 11)])
def test_enumerate_axial_completes_with_many_columns(m, n, size):
    # m! * n! > 1e9: no search may visit every row and column permutation
    cat = enumerate_axial(NetworkShape(m, n))
    assert len(cat) == size
    forms = {canonical_form(e.coloring) for e in cat}
    assert len(forms) == size
    assert all(is_axial_Vd(e.coloring) for e in cat)


# (catalog size, Exotic count) of every shape with m <= n and m * n <= 24
AXIAL_CENSUS = {
    (2, 2): (1, 0), (2, 3): (2, 0), (2, 4): (3, 0), (2, 5): (4, 0),
    (2, 6): (5, 0), (2, 7): (6, 0), (2, 8): (7, 0), (2, 9): (8, 0),
    (2, 10): (9, 0), (2, 11): (10, 0), (2, 12): (11, 0),
    (3, 3): (2, 0), (3, 4): (4, 0), (3, 5): (3, 0), (3, 6): (6, 0),
    (3, 7): (5, 0), (3, 8): (7, 0),
    (4, 4): (8, 0), (4, 5): (8, 0), (4, 6): (14, 1),
}


def _census(m, n):
    cat = enumerate_axial(NetworkShape(m, n))
    return len(cat), sum(classify_orbital_exotic(e.coloring) == "Exotic" for e in cat)


@pytest.mark.parametrize("m, n", sorted(AXIAL_CENSUS))
def test_axial_census_is_pinned_and_transpose_symmetric(m, n):
    # the transposed shape runs the other branch of the Latin keying and of
    # the isotropy search, so agreement checks both
    assert _census(m, n) == AXIAL_CENSUS[(m, n)]
    assert _census(n, m) == AXIAL_CENSUS[(m, n)]


@pytest.mark.parametrize("m, n", [(3, 4), (5, 4), (3, 6)])
def test_case_b_is_transposed_case_a(m, n):
    # case B of m x n (zero rows above a Latin block) is case A of n x m
    # with a zero block (zero columns left of it), transposed
    case_b = [e.coloring for e in enumerate_axial(NetworkShape(m, n)) if e.case == "B"]
    transposed_a = [Coloring.from_rows(zip(*e.coloring.cells)).relabeled()
                    for e in enumerate_axial(NetworkShape(n, m))
                    if e.case == "A" and e.coloring.num_colors == 3]
    assert case_b
    assert sorted(case_b, key=lambda c: c.cells) == \
        sorted(transposed_a, key=lambda c: c.cells)


def test_two_color_latin_reps_match_reference_key():
    # the first block of each canonical form is, class for class, the first
    # reference grid of each conjugacy key (row and column permutations and
    # symbol swap), and every class of the indicators has one
    for p in range(2, 6):
        for q in range(2, 24 // p + 1):
            grids = two_color_latin_indicators(p, q)
            reference = {}
            for g in grids:
                reference.setdefault(indicator_key(g), g)
            reps = {}
            for g in colorings._two_color_latin_blocks(p, q):
                reps.setdefault(canonical_form(Coloring.from_rows(g)), g)
            assert reps == {canonical_form(Coloring.from_rows(g)): g
                            for g in reference.values()}, (p, q)
            classes = {canonical_form(Coloring.from_rows(g)) for g in grids}
            assert len(reps) == len(reference) == len(classes), (p, q)


def test_two_color_latin_blocks_match_reference_dfs():
    # the run-by-run block builder yields exactly the reference DFS grids
    # that are doubly sorted (rows non-increasing from top to bottom,
    # columns from left to right) with at most half of each row ones, in
    # the same order
    for p in range(2, 13):
        for q in range(2, 24 // p + 1):
            grids = colorings._two_color_latin_blocks(p, q)
            doubly_sorted = [g for g in two_color_latin_indicators(p, q)
                             if list(g) == sorted(g, reverse=True)
                             and list(zip(*g)) == sorted(zip(*g), reverse=True)
                             and 2 * sum(g[0]) <= q]
            assert grids == doubly_sorted, (p, q)


def test_reference_dfs_drops_no_array_when_pruning_unreachable_columns():
    # a partial array with a column that can no longer reach b ones has no
    # completion: pruning it keeps the list and its order
    for p in range(2, 13):
        for q in range(2, 24 // p + 1):
            assert two_color_latin_indicators(p, q) == \
                two_color_latin_indicators(p, q, reachable=False), (p, q)


def test_two_color_latin_blocks_differ_by_more_than_column_order():
    # no two blocks of one shape under the cell guard are column permutations
    # of each other
    for p in range(2, colorings.MAX_AXIAL_CELLS // 2 + 1):
        for q in range(2, colorings.MAX_AXIAL_CELLS // p + 1):
            blocks = colorings._two_color_latin_blocks(p, q)
            columns = {tuple(sorted(zip(*g))) for g in blocks}
            assert len(columns) == len(blocks), (p, q)


def test_catalog_entries_are_pairwise_nonconjugate():
    # one entry per conjugacy class: case C runs only over r <= m/2,
    # s <= n/2, and no two generated entries share a canonical form
    for m in range(2, 13):
        for n in range(2, 24 // m + 1):
            cat = enumerate_axial(NetworkShape(m, n))
            forms = [canonical_form(e.coloring) for e in cat]
            assert len(set(forms)) == len(forms), (m, n)


@pytest.mark.parametrize("m, n, digest", [
    (4, 6, "63c10a61c513fa162edbbc3486a8245e358ba37bf0fa51d8f500a549cac8ad24"),
    (5, 5, "2a3000d16611c4e7bb358c6c6269240348226f8b2301195300a6f51ec800f1cd"),
    (5, 6, "3fc2b56647990bc53ac6246a357db15a80ea6d11b835ceea6bfe6f0644092469"),
    (4, 8, "f73b79658a223376170a8cfb488a2422e77c30e9bd4dd2e3a1ef51779b18e76c"),
    (6, 6, "6fcd48ccb49ed5bbb691002813397825875b2c296b083858132ba81006e8049f"),
    (4, 10, "2965ca71052a9877c1a8a0ab86d93ce2b5ffba8cb1be00d893a51b3cf8eff6c5"),
])
def test_catalog_export_is_pinned(m, n, digest):
    # SHA-256 of the exported catalog: entry order, colorings, rho, splits
    # and verdicts must not drift
    text = enumerate_axial(NetworkShape(m, n)).export_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("m, n, digest", [
    (7, 7, "1b730dfea2d86e25fefaaf30db1809980f4daa137efd9350277199c2c031a7dc"),
    (24, 2, "ca974ca70e4d74c77e387c9492e6f683e6095b3f049523ec8b65b3c9b5a32732"),
    (6, 10, "f0fb3109540bcbf7e10376677217999901f5735cbd5c5dea207e335261c4092e"),
])
def test_catalog_export_over_the_guard_is_pinned(m, n, digest, monkeypatch):
    # shapes over MAX_AXIAL_CELLS, built with the guard lifted; the digests
    # come from an enumeration that picked Latin representatives by the
    # p!-row-permutation key of helpers.indicator_key, so they pin that the
    # first doubly sorted block per canonical form is that representative
    monkeypatch.setattr(colorings, "MAX_AXIAL_CELLS", m * n)
    try:
        text = enumerate_axial(NetworkShape(m, n)).export_json()
    finally:
        enumerate_axial.cache_clear()     # a cached catalog would skip the guard
    assert hashlib.sha256(text.encode()).hexdigest() == digest


# ---------------------------------------------------------------------------
# isotropy and verdicts
# ---------------------------------------------------------------------------

def test_isotropy_constant_coloring_full_group():
    rep = isotropy_subgroup(Coloring.from_rows([[0] * 4] * 3))
    assert rep.group_order == math.factorial(3) * math.factorial(4)
    assert rep.verdict == "Orbital"
    assert len(rep.orbit_partition) == 1


def test_isotropy_exotic_4x6_matches_known_generators():
    rep = isotropy_subgroup(EXOTIC_4X6)
    assert rep.verdict == "Exotic"
    for g in EXOTIC_4X6_GENERATORS:
        assert preserves_coloring(EXOTIC_4X6, g)
    H = closure_pairs(EXOTIC_4X6_GENERATORS, 4, 6)
    assert rep.group_order == len(H)
    # the report's generators generate the same group
    H2 = closure_pairs(rep.generators, 4, 6)
    assert H2 == H


def _brute_force_isotropy(c):
    """Every (sigma, tau) in S_m x S_n preserving c, and the cell orbits of
    that group."""
    group = {(sigma, tau) for sigma in itertools.permutations(range(c.m))
             for tau in itertools.permutations(range(c.n))
             if preserves_coloring(c, (sigma, tau))}
    orbits = {frozenset((sigma[i], tau[j]) for sigma, tau in group)
              for i in range(c.m) for j in range(c.n)}
    return group, orbits


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 3), (2, 4), (3, 2), (4, 2)])
def test_isotropy_matches_brute_force(m, n):
    for c in all_colorings(m, n):
        group, orbits = _brute_force_isotropy(c)
        rep = isotropy_subgroup(c)
        assert rep.group_order == len(group), c
        assert set(rep.orbit_partition) == orbits, c
        assert closure_pairs(rep.generators, m, n) == group, c


def test_isotropy_orbits_refine_colors():
    for c in (EXOTIC_4X6, LATIN_3X6, CHECKER_2X2):
        rep = isotropy_subgroup(c)
        classes = {cell: idx for idx, cls in enumerate(c.color_classes())
                   for cell in cls}
        for orbit in rep.orbit_partition:
            assert len({classes[cell] for cell in orbit}) == 1


def test_half_pattern_2xk_is_orbital():
    c = Coloring.from_rows([[0, 0, 1, 1], [1, 1, 0, 0]])
    assert classify_orbital_exotic(c) == "Orbital"


def test_case_c_blocks_are_orbital():
    for m, n in ((3, 4), (4, 6)):
        for e in enumerate_axial(NetworkShape(m, n)):
            if e.case == "C":
                assert classify_orbital_exotic(e.coloring) == "Orbital"


def test_single_red_column_4x12_is_orbital():
    # twelve columns, one low cell per column, three columns per position
    c = Coloring.from_rows([[0 if i == j // 3 else 1 for j in range(12)]
                            for i in range(4)])
    rep = isotropy_subgroup(c)
    assert rep.verdict == "Orbital"


def test_classify_requires_axial():
    with pytest.raises(ValueError):
        classify_orbital_exotic(Coloring.from_rows([[0, 0], [0, 0]]))


def test_isotropy_of_tall_two_column_coloring():
    # 12 rows: the search runs over the 2! column permutations of the transpose
    tall = Coloring.from_rows([[0, 1]] * 12)
    rep = isotropy_subgroup(tall)
    assert rep.group_order == math.factorial(12)
    assert set(rep.orbit_partition) == {frozenset((i, j) for i in range(12))
                                        for j in range(2)}
    assert rep.verdict == "Orbital"


# ---------------------------------------------------------------------------
# 4 x n sufficiency test
# ---------------------------------------------------------------------------

def _four_by_n_from_column_types(counts):
    """counts: {frozen row set carrying color 0: multiplicity}."""
    cols = []
    for rows0, k in counts.items():
        col = tuple(0 if i in rows0 else 1 for i in range(4))
        cols.extend([col] * k)
    return Coloring.from_rows([tuple(col[i] for col in cols) for i in range(4)])


def test_exotic_sufficient_4x12_unequal_multiplicities():
    c = _four_by_n_from_column_types({
        frozenset({0, 1}): 3, frozenset({2, 3}): 3,
        frozenset({0, 2}): 1, frozenset({1, 3}): 1,
        frozenset({0, 3}): 2, frozenset({1, 2}): 2,
    })
    assert is_latin_rectangle(c)
    assert exotic_sufficient_4xn(c)
    assert classify_orbital_exotic(c) == "Exotic"


def test_exotic_sufficient_inconclusive_when_equal():
    c = _four_by_n_from_column_types({
        frozenset({0, 1}): 1, frozenset({2, 3}): 1,
        frozenset({0, 2}): 1, frozenset({1, 3}): 1,
        frozenset({0, 3}): 1, frozenset({1, 2}): 1,
    })
    assert not exotic_sufficient_4xn(c)


def test_exotic_sufficient_known_pattern():
    assert exotic_sufficient_4xn(EXOTIC_4X6)


def test_exotic_sufficient_rejects_wrong_input():
    with pytest.raises(ValueError):
        exotic_sufficient_4xn(LATIN_3X6)  # not 4 rows
    with pytest.raises(ValueError):
        exotic_sufficient_4xn(Coloring.from_rows(
            [[0 if i == j // 3 else 1 for j in range(12)] for i in range(4)]))  # 1+3 columns


def test_column_pair_multiplicities_of_known_pattern():
    mu = column_pair_multiplicities(EXOTIC_4X6)
    assert sorted(mu.values()) == [2, 4]  # one pair once each, one pair twice each
    counts = column_type_counts(EXOTIC_4X6)
    assert sorted(counts.values()) == [1, 1, 2, 2]


def test_pairing_law_exhaustive_up_to_eight_columns():
    # every two-color Latin rectangle on four rows balances each
    # complementary column pair
    total = 0
    for n in (2, 4, 6, 8):
        for g in two_color_latin_indicators(4, n):
            if any(sum(col) != 2 for col in zip(*g)):
                continue  # only the 2+2-per-column family pairs up
            c = Coloring.from_rows(g)
            counts = column_type_counts(c)
            for rows0, k in counts.items():
                assert counts.get(frozenset(range(4)) - rows0, 0) == k
            total += 1
    assert total > 20000


# ---------------------------------------------------------------------------
# axial values
# ---------------------------------------------------------------------------

def test_axial_values_half_rho():
    e = next(e for e in enumerate_axial(NetworkShape(2, 2)))
    assert e.rho == Fraction(1, 2)
    vals = axial_values(e, 1)
    flat = {v for row in vals for v in row}
    assert flat == {Fraction(1), Fraction(-1)}


def test_axial_values_case_c_ratios():
    e = next(e for e in enumerate_axial(NetworkShape(3, 4))
             if e.case == "C" and e.split == (1, 1))
    vals = axial_values(e, 1)
    b11, b12, b21, b22 = corner_colors(e.coloring)
    value_of = {}
    for i in range(3):
        for j in range(4):
            value_of[e.coloring.cells[i][j]] = vals[i][j]
    assert value_of[b11] == 1
    assert value_of[b12] == Fraction(-1, 3)
    assert value_of[b21] == Fraction(-1, 2)
    assert value_of[b22] == Fraction(1, 6)


def test_axial_values_zero_sums_exact():
    for m, n in ((2, 4), (3, 4), (4, 6)):
        for e in enumerate_axial(NetworkShape(m, n)):
            vals = axial_values(e, Fraction(3, 7))
            for row in vals:
                assert sum(row) == 0
            for col in zip(*vals):
                assert sum(col) == 0
            if e.case in ("A", "B"):
                red = Fraction(3, 7)
                blue = -e.rho / (1 - e.rho) * red
                flat = {v for row in vals for v in row}
                assert red in flat and blue in flat
                if bordered_latin_roles(e)[0] is not None:
                    assert Fraction(0) in flat


def test_axial_values_rejects_zero_amplitude():
    e = next(iter(enumerate_axial(NetworkShape(2, 2))))
    with pytest.raises(ValueError):
        axial_values(e, 0)


def test_axial_values_match_exact_nullspace():
    # the case formulas and the generic rational nullspace agree
    for e in enumerate_axial(NetworkShape(3, 4)):
        basis = dissensus_intersection_basis(e.coloring)
        assert len(basis) == 1
        vals = axial_values(e, 1)
        grid = [[basis[0][col] for col in row] for row in e.coloring.cells]
        # proportional: cross-multiply on the first nonzero entry
        lead_v = next(v for row in vals for v in row if v != 0)
        lead_g = next(g for row in grid for g in row if g != 0)
        for rv, rg in zip(vals, grid):
            for v, g in zip(rv, rg):
                assert v * lead_g == g * lead_v


# ---------------------------------------------------------------------------
# stable equilibrium synthesis
# ---------------------------------------------------------------------------

def test_synthesize_single_color_is_linear():
    c = Coloring.from_rows([[0, 0], [0, 0]])
    y = [[Fraction(2), Fraction(2)], [Fraction(2), Fraction(2)]]
    fmap, report = synthesize_stable_admissible(c, y)
    assert fmap.coeffs == (Fraction(2), Fraction(-1))  # f(x) = -(x - 2)
    assert report.exact_roots and report.exact_slopes
    assert report.residual_max == 0.0
    assert report.max_eigenvalue_deviation <= 1e-8


def test_synthesize_two_levels_cubic():
    c = CHECKER_2X2
    y = [[Fraction(1), Fraction(-1)], [Fraction(-1), Fraction(1)]]
    fmap, report = synthesize_stable_admissible(c, y)
    assert len(fmap.coeffs) - 1 == 3
    assert report.exact_roots and report.exact_slopes
    assert report.residual_max <= 1e-12
    assert report.max_eigenvalue_deviation <= 1e-8


def test_synthesize_exotic_pattern_equilibrium():
    cat = enumerate_axial(NetworkShape(4, 6))
    exotic = next(e for e in cat
                  if classify_orbital_exotic(e.coloring) == "Exotic")
    y = axial_values(exotic, 1)
    fmap, report = synthesize_stable_admissible(exotic.coloring, y)
    assert report.residual_max <= 1e-12
    assert report.max_eigenvalue_deviation <= 1e-8
    # the equilibrium has exactly the prescribed synchrony pattern
    Z = np.array([[float(v) for v in row] for row in y])
    got = quantize_to_coloring(Z, 1e-9)
    assert sorted(got.color_classes(), key=sorted) == \
        sorted(exotic.coloring.color_classes(), key=sorted)


def test_synthesize_random_balanced_colorings():
    rng = np.random.default_rng(51)
    for _ in range(6):
        c = sample_balanced_coloring(rng)
        levels = random_generic_levels(c.num_colors, rng)
        y = [[levels[col] for col in row] for row in c.cells]
        fmap, report = synthesize_stable_admissible(c, y)
        assert report.exact_roots and report.exact_slopes
        assert report.residual_max <= 1e-12
        assert report.max_eigenvalue_deviation <= 1e-8


def test_hermite_closed_form_matches_divided_differences():
    # the closed form and the Newton form over doubled nodes give the same
    # exact coefficients (the Hermite interpolant is unique)
    rng = np.random.default_rng(7)
    for num in range(1, 9):
        for _ in range(25):
            levels = [Fraction(int(rng.integers(-40, 41)), int(rng.integers(1, 13)))
                      for _ in range(num)]
            if len(set(levels)) < num:
                continue
            assert colorings._hermite_double_nodes(levels) == \
                reference_hermite_double_nodes(levels), levels


def test_synthesize_rejects_non_generic():
    c = CHECKER_2X2
    y = [[1.0, 1.0], [1.0, 1.0]]  # both colors share one value
    with pytest.raises(ValueError):
        synthesize_stable_admissible(c, y)


def test_synthesize_rejects_unbalanced():
    c = Coloring.from_rows([[0, 0, 1], [1, 1, 1]])
    assert not is_balanced(c)
    with pytest.raises(ValueError):
        synthesize_stable_admissible(c, [[1, 1, 2], [2, 2, 2]])


# ---------------------------------------------------------------------------
# text / JSON round trips
# ---------------------------------------------------------------------------

def test_coloring_text_round_trip():
    text = EXOTIC_4X6.to_text()
    assert Coloring.from_text(text) == EXOTIC_4X6
    assert text.splitlines()[0] == "0 1 0 0 1 1"


def test_catalog_export_fields():
    import json
    cat = enumerate_axial(NetworkShape(2, 4))
    items = json.loads(cat.export_json())
    assert len(items) == 3
    for item in items:
        assert set(item) == {"case", "coloring", "rho", "split", "verdict"}
        assert item["verdict"] in ("Orbital", "Exotic")
