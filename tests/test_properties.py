"""Property tests: the field's bitwise guarantees on generated configs,
stacks and symmetries, the Newton finish's on permuted finish starts, and
the exact layer (canonical form, isotropy, balance witness, dissensus
basis) against its direct reference computations on generated colorings
(hypothesis, derandomized so every run checks the same examples)."""

import dataclasses
import sys

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from helpers import (random_balanced_coloring, reference_balance_witness,  # noqa: E402
                     reference_canonical_form, reference_dissensus_basis,
                     reference_isotropy_subgroup)
from indecision import (BUILTIN_SCENARIOS, Coloring, GainParams,  # noqa: E402
                        IntegratorConfig, ModelConfig, NetworkShape, SigmoidParams,
                        balance_witness, canonical_form, dim_Vd_intersection,
                        dissensus_intersection_basis, enumerate_axial, get_scenario,
                        integrate_batch, is_axial_Vd, isotropy_subgroup, random_near_origin)
from indecision.integrate import _balanced_classes, _newton_finish  # noqa: E402
from indecision.model import _compiled_model  # noqa: E402

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

gain = st.floats(-2.0, 2.0)
offset = st.floats(0.05, 1.5).flatmap(lambda x: st.sampled_from([x, -x]))
small_shapes = st.builds(NetworkShape, st.integers(2, 6), st.integers(2, 6))
# a side of 9 or 10: numpy adds a line of 8 or more entries pairwise along a
# contiguous axis and in sequence along a strided one
long_line_shapes = st.one_of(st.builds(NetworkShape, st.integers(9, 10), st.integers(2, 10)),
                             st.builds(NetworkShape, st.integers(2, 10), st.integers(9, 10)))


@st.composite
def configs(draw, shapes=small_shapes):
    shape = draw(shapes)
    return ModelConfig(shape=shape, gains=GainParams(*(draw(gain) for _ in range(4))),
                       sigmoids=SigmoidParams(draw(offset), draw(offset)),
                       lam=draw(st.floats(-2.0, 2.0)))


def states(draw, shape, size=(), values=st.floats(-1e3, 1e3)):
    cells = int(np.prod(size, dtype=int)) * shape.m * shape.n
    return np.array(draw(st.lists(values, min_size=cells, max_size=cells)),
                    dtype=float).reshape(size + (shape.m, shape.n))


def bits(a):
    # the bit patterns of a, with every NaN made the same NaN
    return np.where(np.isnan(a), np.nan, a).view(np.int64)


def tied_values(draw):
    # entries drawn from a pool of at most four values and both zeros, so
    # lines hold ties and zeros of either sign
    pool = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=4))
    return st.sampled_from(pool + [0.0, -0.0])


def other_layouts(a):
    # copies of the array a in layouts other than C order: Fortran order,
    # each state column-major, and a strided view
    return [np.asfortranarray(a), np.swapaxes(np.swapaxes(a, -1, -2).copy(), -1, -2),
            np.repeat(a, 2, axis=-1)[..., ::2]]


def member(a, i):
    # member i of a stack as a stack of one: the states are the last two
    # axes and the members the axis before them
    return a.take([i], axis=a.ndim - 3)


@PROPERTY
@given(st.data())
def test_stacked_field_equals_each_member_alone_bitwise(data):
    # any stack size and any values, non-finite and huge ones included: a
    # stack's field, slopes and Jacobian-vector product are its members'
    cfg = data.draw(configs())
    size = data.draw(st.integers(1, 5))
    values = st.floats(allow_nan=True, allow_infinity=True) | st.floats(-10.0, 10.0)
    Z, V = (states(data.draw, cfg.shape, (size,), values) for _ in range(2))
    D = np.stack([V, Z])    # the product is defined for any slopes
    field, slopes, jvp = _compiled_model(cfg)
    for fn, args in ((field, (Z,)), (slopes, (Z,)), (jvp, (D, V))):
        with np.errstate(all="ignore"):
            stacked = fn(*args)
            alone = [fn(*(member(a, i) for a in args)) for i in range(size)]
        assert stacked.shape[-3:] == Z.shape
        for i, F in enumerate(alone):
            assert np.array_equal(bits(member(stacked, i)), bits(F))


@PROPERTY
@given(st.data())
def test_stack_of_one_equals_its_state_in_a_stack_of_two_bitwise(data):
    # a stack of one takes its own constants, spread over the state, and a
    # larger stack the broadcast ones: a state's field, slopes and
    # Jacobian-vector product alone, in any memory layout, are its bits in
    # a stack of two
    cfg = data.draw(configs())
    values = st.floats(allow_nan=True, allow_infinity=True) | st.floats(-10.0, 10.0)
    Z, V, W = (states(data.draw, cfg.shape, (1,), values) for _ in range(3))
    D = np.stack([V[0], Z[0]])[:, None]
    field, slopes, jvp = _compiled_model(cfg)
    with np.errstate(all="ignore"):
        pair = (field(np.concatenate([Z, W])), slopes(np.concatenate([Z, W])),
                jvp(np.concatenate([D, D], axis=1), np.concatenate([V, W])))
        for Zl, Vl, Dl in zip([Z] + other_layouts(Z), [V] + other_layouts(V),
                              [D] + other_layouts(D)):
            for got, want in zip((field(Zl), slopes(Zl), jvp(Dl, Vl)), pair):
                assert np.array_equal(bits(got), bits(member(want, 0)))


@PROPERTY
@given(st.data())
def test_field_and_jvp_are_bitwise_equivariant(data):
    cfg = data.draw(configs())
    m, n = cfg.shape.m, cfg.shape.n
    Z, V = states(data.draw, cfg.shape), states(data.draw, cfg.shape)
    sigma = data.draw(st.permutations(range(m)))
    tau = data.draw(st.permutations(range(n)))
    perm = np.ix_(sigma, tau)
    f, slopes, jvp = _compiled_model(cfg)
    assert np.array_equal(bits(f(Z[perm][None])[0]), bits(f(Z[None])[0][perm]))
    assert np.array_equal(bits(jvp(slopes(Z[perm][None]), V[perm][None])[0]),
                          bits(jvp(slopes(Z[None]), V[None])[0][perm]))


@PROPERTY
@given(st.data())
def test_long_line_sums_are_bitwise_in_any_stack_order_and_layout(data):
    # lines of 9 or 10 entries with ties and zeros of both signs: the
    # field, slopes and Jacobian-vector product of a stack are its members'
    # alone, a permuted stack (fancy-indexed, so not C-ordered) gives the
    # permuted result, and a copy in another layout gives the same bits
    cfg = data.draw(configs(long_line_shapes))
    m, n = cfg.shape.m, cfg.shape.n
    size = data.draw(st.integers(1, 4))
    values = tied_values(data.draw)
    Z, V = (states(data.draw, cfg.shape, (size,), values) for _ in range(2))
    sigma = data.draw(st.permutations(range(m)))
    tau = data.draw(st.permutations(range(n)))
    field, slopes, jvp = _compiled_model(cfg)
    F, D = field(Z), slopes(Z)
    JV = jvp(D, V)

    def permuted(a):
        return a[..., sigma, :][..., tau]

    Zp, Vp = permuted(Z), permuted(V)
    Dp = slopes(Zp)
    for got, want in ((field(Zp), permuted(F)), (Dp, permuted(D)),
                      (jvp(Dp, Vp), permuted(JV))):
        assert np.array_equal(bits(got), bits(want))
    for i in range(size):
        Zi = member(Z, i)
        for got, want in ((field(Zi), member(F, i)), (slopes(Zi), member(D, i)),
                          (jvp(member(D, i), member(V, i)), member(JV, i))):
            assert np.array_equal(bits(got), bits(want))
    for Zl, Vl, Dl in zip(other_layouts(Z), other_layouts(V), other_layouts(D)):
        for got, want in ((field(Zl), F), (slopes(Zl), D), (jvp(Dl, Vl), JV)):
            assert np.array_equal(bits(got), bits(want))


@pytest.fixture(scope="module")
def finish_starts():
    # (Z, FZ, cfg) of every Newton finish that seeds 0-3 of each built-in
    # try (consensus starts hold ties whose partition is not balanced), and
    # a zero state holding both -0.0 and 0.0, in one class, under a linear
    # config (lam = 0) whose field is -0.0 at some of its cells
    module = sys.modules["indecision.integrate"]
    newton, starts = module._newton_finish, []

    def capture(Z, FZ, cfg, tol):
        starts.append((Z.copy(), FZ.copy(), cfg))
        return newton(Z, FZ, cfg, tol)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(module, "_newton_finish", capture)
        for name in sorted(BUILTIN_SCENARIOS):
            sc = get_scenario(name)
            integrate_batch([random_near_origin(sc.shape, sc.radius, seed) for seed in range(4)],
                            sc.model_config(), sc.integrator_config())
    cfg = dataclasses.replace(get_scenario("consensus-4x6").model_config(),
                              sigmoids=SigmoidParams(1.5, 1.5), lam=0.0)
    Z = np.where(np.arange(24).reshape(4, 6) % 5 == 0, -0.0, 0.0)
    return starts + [(Z, _compiled_model(cfg)[0](Z[None])[0], cfg)]


@PROPERTY
@given(st.data())
def test_newton_finish_is_bitwise_equivariant_and_keeps_its_classes(finish_starts, data):
    # the finish of a permuted start is the permuted finish, bitwise, or
    # None on both sides; its final is constant on every class of the
    # start's coarsest balanced coloring, bitwise.  The abscissa is the
    # gate's: LAPACK's eigenvalues of the permuted Jacobian, equal only to
    # rounding
    Z, FZ, cfg = data.draw(st.sampled_from(finish_starts))
    sigma = data.draw(st.permutations(range(cfg.shape.m)))
    tau = data.draw(st.permutations(range(cfg.shape.n)))
    perm = np.ix_(sigma, tau)
    tol = IntegratorConfig.equilibrium_tol
    want, got = _newton_finish(Z, FZ, cfg, tol), _newton_finish(Z[perm], FZ[perm], cfg, tol)
    assert (got is None) == (want is None)
    if want is not None:
        assert np.array_equal(bits(got[0]), bits(want[0][perm]))
        assert got[1] == want[1]
        assert got[2] == pytest.approx(want[2], rel=0, abs=1e-12)
        labels, first = _balanced_classes(Z)
        assert np.array_equal(bits(want[0]), bits(want[0].ravel()[first][labels]))


@st.composite
def colorings(draw, max_m, max_n, max_cells):
    # ids drawn from 1 to m * n colors, so most grids repeat colors and tie
    m = draw(st.integers(1, max_m))
    n = draw(st.integers(1, min(max_n, max_cells // m)))
    ids = draw(st.lists(st.integers(0, draw(st.integers(1, m * n)) - 1),
                        min_size=m * n, max_size=m * n))
    dense = {}
    return Coloring(tuple(tuple(dense.setdefault(x, len(dense)) for x in ids[i * n:(i + 1) * n])
                          for i in range(m)))


@PROPERTY
@given(colorings(max_m=6, max_n=12, max_cells=12))
def test_canonical_form_equals_reference_on_tie_heavy_colorings(c):
    assert canonical_form(c) == reference_canonical_form(c)


@PROPERTY
@given(st.data())
def test_canonical_form_is_invariant_under_row_and_column_permutations(data):
    c = data.draw(colorings(max_m=5, max_n=6, max_cells=30))
    sigma = data.draw(st.permutations(range(c.m)))
    tau = data.draw(st.permutations(range(c.n)))
    conj = Coloring.from_rows([[c.cells[s][t] for t in tau] for s in sigma]).relabeled()
    assert canonical_form(conj) == canonical_form(c)


@pytest.mark.parametrize("m, n", [(5, 6), (6, 6)])
def test_canonical_form_of_all_distinct_coloring_is_column_major_identity(m, n):
    # every conjugate relabels to the word 0, 1, ..., m * n - 1: all m! n!
    # row and column orders reach it, and the search must not visit them all
    c = Coloring.from_rows([[i * n + j for j in range(n)] for i in range(m)])
    assert canonical_form(c) == Coloring.from_rows([[j * m + i for j in range(n)]
                                                     for i in range(m)])


@st.composite
def balanced_colorings(draw, max_side):
    m, n = draw(st.integers(1, max_side)), draw(st.integers(1, max_side))
    return random_balanced_coloring(m, n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))


def assert_exact_layer_equals_reference(c):
    assert isotropy_subgroup(c) == reference_isotropy_subgroup(c)
    witness, basis = reference_balance_witness(c), reference_dissensus_basis(c)
    assert balance_witness(c) == witness
    assert dissensus_intersection_basis(c) == basis
    assert dim_Vd_intersection(c) == len(basis)
    assert is_axial_Vd(c) == (witness is None and len(basis) == 1)


@PROPERTY
@given(colorings(max_m=6, max_n=6, max_cells=36) | balanced_colorings(max_side=6))
def test_exact_layer_equals_reference_on_random_colorings(c):
    # the whole isotropy report (generators in order included) and the
    # witness tuple, not only the verdicts
    assert_exact_layer_equals_reference(c)


@pytest.mark.parametrize("m, n", [(4, 6), (5, 5), (5, 6), (7, 6)])
def test_exact_layer_equals_reference_on_catalog_entries(m, n):
    for e in enumerate_axial(NetworkShape(m, n)):
        assert_exact_layer_equals_reference(e.coloring)
