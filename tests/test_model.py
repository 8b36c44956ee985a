from fractions import Fraction

import numpy as np
import pytest

from indecision import (
    BUILTIN_SCENARIOS,
    CriticalCoefficients,
    GainParams,
    ModelConfig,
    NetworkShape,
    SigmoidParams,
    analytic_eigenvalues,
    axial_value_matrix,
    bifurcation_threshold,
    coefficients_from_gains,
    enumerate_axial,
    gains_from_coefficients,
    get_scenario,
    integrate,
    interaction_matrix,
    interaction_matrix_det,
    irrep_project,
    jacobian,
    numerical_jacobian,
    vector_field,
)
from helpers import random_balanced_coloring, reference_field
from indecision.model import _compiled_field, _compiled_linearization


def make_config(shape, gains, sig=(0.5, 0.3), lam=1.1):
    return ModelConfig(shape=shape, gains=GainParams(*gains),
                       sigmoids=SigmoidParams(*sig), lam=lam)


# ---------------------------------------------------------------------------
# sigmoid
# ---------------------------------------------------------------------------

def saturation(s, x):
    """S1(x) with offset s, read off the field: with gains (1, 0, 0, 0) and
    lambda = 1 the S2 term vanishes and F(Z) = S1(Z) - Z cellwise."""
    cfg = make_config(NetworkShape(2, 2), (1.0, 0.0, 0.0, 0.0), sig=(s, 0.3), lam=1.0)
    return float(vector_field(np.full((2, 2), x), cfg)[0, 0]) + x


def test_network_shape_rejects_non_integer_sizes_by_name():
    for m, n, name in [(4, 6.0, "n"), (4.0, 6, "m"), (4, 6.5, "n"), (True, 3, "m"), (3, "4", "n")]:
        with pytest.raises(ValueError, match=f"shape {name} must be an integer"):
            NetworkShape(m, n)
    assert NetworkShape(np.int64(4), 6).cells == 24


def test_sigmoid_zero_at_origin():
    assert saturation(0.5, 0.0) == 0.0
    assert saturation(-0.3, 0.0) == 0.0


def test_sigmoid_unit_slope_at_origin():
    h = 1e-6
    slope = (saturation(0.5, h) - saturation(0.5, -h)) / (2 * h)
    assert abs(slope - 1.0) < 1e-6


def test_sigmoid_closed_form_value():
    # frozen from a 50-digit evaluation of (tanh(9.5)+tanh(.5))/(1-tanh(.5)^2)
    assert saturation(0.5, 10.0) == pytest.approx(1.8591408999811596, abs=1e-14)


def test_sigmoid_rejects_zero_offset():
    with pytest.raises(ValueError):
        SigmoidParams(0.0, 0.3)


# ---------------------------------------------------------------------------
# vector field
# ---------------------------------------------------------------------------

def test_field_zero_at_origin():
    cfg = make_config(NetworkShape(3, 4), (0.2, -0.1, 0.4, -0.3))
    out = vector_field(np.zeros((3, 4)), cfg)
    assert np.all(out == 0.0)


def test_field_shape_mismatch():
    cfg = make_config(NetworkShape(3, 4), (0.2, -0.1, 0.4, -0.3))
    with pytest.raises(ValueError):
        vector_field(np.zeros((4, 3)), cfg)


def test_field_equivariance_exact():
    # permuting agents and options must permute the output bitwise
    rng = np.random.default_rng(7)
    shape = NetworkShape(4, 6)
    cfg = make_config(shape, (0.3, -0.2, 0.5, -0.1), lam=1.2)
    for _ in range(50):
        Z = rng.standard_normal((4, 6)) * rng.uniform(0.1, 3.0)
        sigma = rng.permutation(4)
        tau = rng.permutation(6)
        G = vector_field(Z, cfg)
        Gp = vector_field(Z[np.ix_(sigma, tau)], cfg)
        assert np.array_equal(Gp, G[np.ix_(sigma, tau)])


def test_field_flow_invariance_of_balanced_colorings_exact():
    # states constant on the classes of a balanced coloring stay so, bitwise
    rng = np.random.default_rng(3)
    shapes = [(2, 3), (3, 4), (2, 6), (4, 3)]
    for m, n in shapes:
        shape = NetworkShape(m, n)
        for trial in range(5):
            coloring = random_balanced_coloring(m, n, rng)
            gains = tuple(rng.uniform(-0.6, 0.6, size=4))
            cfg = make_config(shape, gains, lam=float(rng.uniform(0.5, 1.5)))
            levels = rng.standard_normal(coloring.num_colors)
            Z = levels[coloring.to_array()]
            G = vector_field(Z, cfg)
            for cls in coloring.color_classes():
                vals = {G[i, j] for (i, j) in cls}
                assert len(vals) == 1


def test_field_matches_two_pass_reference_bitwise():
    # the stacked one-pass field, on stacks of 1, 2 and 3 states (2 is also
    # the length of the saturation axis), against the per-saturation
    # reference on each state
    rng = np.random.default_rng(12)
    for m in range(2, 9):
        for n in range(2, 9):
            gains = tuple(rng.uniform(-1.0, 1.0, size=4))
            sig = tuple(rng.choice([-1.0, 1.0], size=2) * rng.uniform(0.1, 1.0, size=2))
            cfg = make_config(NetworkShape(m, n), gains, sig,
                              lam=float(rng.uniform(0.5, 1.5)))
            fast, ref = _compiled_field(cfg), reference_field(cfg)
            for scale in (1e-9, 1e-4, 1e-1, 1.0, 10.0):
                for size in (1, 2, 3):
                    Z = rng.uniform(-scale, scale, size=(size, m, n))
                    got = fast(Z)
                    assert got.shape == Z.shape
                    for Zi, Fi in zip(Z, got):
                        assert np.array_equal(Fi, ref(Zi))


def test_tanh_bits_independent_of_offset_and_length():
    # the stacked field evaluates both saturations of a stack of B states in
    # one np.tanh call, state b's saturation k starting at offset
    # (k B + b) m n; its bitwise equality with the two-pass field rests on
    # np.tanh giving a value the same bits at every position of a
    # contiguous float64 array of any length (up to 2 * 20 * 4 * 6 = 960
    # for the default 20 seeds of a 4 x 6 scenario)
    rng = np.random.default_rng(13)
    special = [0.0, -0.0, 5e-324, -1e-300, 1e-8, -0.3, 19.0, -19.5, 710.0, np.inf]
    lengths = list(range(1, 2 * 8 * 8 + 1)) + [255, 256, 257, 960, 961]
    for scale in (1e-6, 1.0, 25.0):
        pool = np.concatenate([special, rng.uniform(-scale, scale, size=970)])
        want = np.array([np.tanh(np.array([v]))[0] for v in pool])
        for length in lengths:
            for offset in range(17):
                got = np.tanh(pool[offset:offset + length].copy())
                assert np.array_equal(got.view(np.int64),
                                      want[offset:offset + length].view(np.int64)), \
                    (scale, offset, length)


def test_field_jacobian_matches_analytic_eigenvalues():
    rng = np.random.default_rng(11)
    for m, n in ((2, 2), (3, 4), (4, 6)):
        shape = NetworkShape(m, n)
        gains = tuple(rng.uniform(-0.8, 0.8, size=4))
        cfg = make_config(shape, gains, lam=1.3)
        J = numerical_jacobian(np.zeros((m, n)), cfg, 1e-6)
        coeffs = coefficients_from_gains(cfg.gains, shape)
        expected = analytic_eigenvalues(coeffs, cfg.lam, shape)
        got = sorted(np.linalg.eigvals(J).real)
        want = sorted(v for v, mult in expected for _ in range(mult))
        assert np.allclose(got, want, atol=1e-6)


def exotic_final():
    # the stable equilibrium on the line of 4x6 catalog entry #8 (Exotic)
    sc = get_scenario("dissensus-exotic-4x6")
    Z0 = axial_value_matrix(enumerate_axial(sc.shape)[8], 0.3)
    _, res = integrate(Z0, sc.model_config(), sc.integrator_config())
    assert res.converged
    return res.final


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_jacobian_matches_finite_differences(name):
    cfg = get_scenario(name).model_config()
    rng = np.random.default_rng(14)
    states = [rng.uniform(-scale, scale, size=(4, 6)) for scale in (1e-3, 0.3, 1.0)]
    if name == "dissensus-exotic-4x6":
        states.append(exotic_final())
    slopes, jvp = _compiled_linearization(cfg)
    sigma, tau = rng.permutation(4), rng.permutation(6)
    for Z in states:
        J = jacobian(Z, cfg)
        assert np.abs(J - numerical_jacobian(Z, cfg, 1e-6)).max() <= 1e-8
        V = rng.standard_normal((4, 6))
        JV = jvp(slopes(Z), V)
        assert np.allclose(JV.ravel(), J @ V.ravel(), rtol=0.0, atol=1e-13)
        # the product is bitwise equivariant, like the field
        perm = np.ix_(sigma, tau)
        assert np.array_equal(jvp(slopes(Z[perm]), V[perm]), JV[perm])


# ---------------------------------------------------------------------------
# gains <-> coefficients
# ---------------------------------------------------------------------------

def test_coefficients_pure_self_gain():
    c = coefficients_from_gains(GainParams(1, 0, 0, 0), NetworkShape(3, 5))
    assert c.as_tuple() == (1.0, 1.0, 1.0, 1.0)


def test_coefficients_row_gain_2x2():
    # by hand: beta enters c_d with -1, c_c with -1, c_dl with (n-1), c_s with (n-1)
    c = coefficients_from_gains(GainParams(0, 1, 0, 0), NetworkShape(2, 2))
    assert c.as_tuple() == (-1.0, -1.0, 1.0, 1.0)


def test_interaction_matrix_det_exact():
    for m in range(2, 9):
        for n in range(2, 9):
            det = interaction_matrix_det(NetworkShape(m, n))
            assert det == Fraction(-(m * m * n * n))


def test_gain_coefficient_round_trip():
    rng = np.random.default_rng(5)
    for m in range(2, 9):
        for n in range(2, 9):
            shape = NetworkShape(m, n)
            g = GainParams(*rng.uniform(-2, 2, size=4))
            c = coefficients_from_gains(g, shape)
            g2 = gains_from_coefficients(c, shape)
            assert np.allclose(g.as_tuple(), g2.as_tuple(), atol=1e-12)
            c2 = coefficients_from_gains(g2, shape)
            assert np.allclose(c.as_tuple(), c2.as_tuple(), atol=1e-12)


def test_gains_from_unit_coefficients():
    g = gains_from_coefficients(CriticalCoefficients(1, 1, 1, 1), NetworkShape(4, 6))
    assert np.allclose(g.as_tuple(), (1.0, 0.0, 0.0, 0.0), atol=1e-12)


def test_gains_for_dissensus_first_example():
    shape = NetworkShape(4, 6)
    c = CriticalCoefficients(0.0, -1.0, -1.0, -1.0)
    g = gains_from_coefficients(c, shape)
    c2 = coefficients_from_gains(g, shape)
    assert np.allclose(c2.as_tuple(), c.as_tuple(), atol=1e-12)


# ---------------------------------------------------------------------------
# eigenvalues and thresholds
# ---------------------------------------------------------------------------

def test_analytic_eigenvalues_lambda_zero():
    vals = analytic_eigenvalues(CriticalCoefficients(2, -1, 0.5, 3), 0.0, NetworkShape(3, 3))
    assert all(v == -1.0 for v, _ in vals)


def test_analytic_eigenvalues_critical():
    vals = analytic_eigenvalues(CriticalCoefficients(1.0, -1, -1, -1), 1.0, NetworkShape(4, 6))
    assert vals[0][0] == 0.0  # dissensus eigenvalue crosses zero at threshold


def test_analytic_eigenvalue_multiplicities_4x6():
    vals = analytic_eigenvalues(CriticalCoefficients(1, 2, 3, 4), 0.7, NetworkShape(4, 6))
    assert [mult for _, mult in vals] == [15, 5, 3, 1]
    assert sum(mult for _, mult in vals) == 24


def test_threshold_values():
    c = CriticalCoefficients(1.0, -1.0, -0.5, -0.5)
    t = bifurcation_threshold(c, "dissensus")
    assert t.lam == 1.0 and t.first and t.reachable
    t2 = bifurcation_threshold(CriticalCoefficients(2.0, -1, -1, -1), "dissensus")
    assert t2.lam == 0.5


def test_threshold_errors_and_flags():
    with pytest.raises(ValueError):
        bifurcation_threshold(CriticalCoefficients(0.0, 1, 1, 1), "dissensus")
    t = bifurcation_threshold(CriticalCoefficients(-2.0, 1, -1, -1), "dissensus")
    assert not t.reachable and not t.first and t.lam == -0.5
    # not first when another positive coefficient is larger
    t = bifurcation_threshold(CriticalCoefficients(1.0, 2.0, -1, -1), "dissensus")
    assert t.reachable and not t.first


# ---------------------------------------------------------------------------
# invariant-subspace projections
# ---------------------------------------------------------------------------

def test_project_constant_matrix():
    Z = np.full((3, 4), 2.5)
    dec = irrep_project(Z)
    assert np.allclose(dec.sync, Z)
    for comp in (dec.consensus, dec.deadlock, dec.dissensus):
        assert np.allclose(comp, 0.0, atol=1e-15)


def test_project_consensus_matrix():
    row = np.array([1.0, -2.0, 0.5, 0.5])
    Z = np.tile(row, (3, 1))
    dec = irrep_project(Z)
    assert np.allclose(dec.consensus, Z)
    assert np.allclose(dec.sync, 0.0, atol=1e-15)
    assert np.allclose(dec.deadlock, 0.0, atol=1e-15)
    assert np.allclose(dec.dissensus, 0.0, atol=1e-15)


def test_project_recombines_and_is_idempotent():
    rng = np.random.default_rng(2)
    Z = rng.standard_normal((3, 4))
    dec = irrep_project(Z)
    assert np.allclose(dec.sync + dec.consensus + dec.deadlock + dec.dissensus, Z,
                       atol=1e-12)
    for comp in (dec.sync, dec.consensus, dec.deadlock, dec.dissensus):
        sub = irrep_project(comp)
        total = sub.sync + sub.consensus + sub.deadlock + sub.dissensus
        assert np.allclose(total, comp, atol=1e-12)
    # idempotence componentwise
    assert np.allclose(irrep_project(dec.consensus).consensus, dec.consensus, atol=1e-12)
    assert np.allclose(irrep_project(dec.dissensus).dissensus, dec.dissensus, atol=1e-12)


def test_project_components_orthogonal_and_structured():
    rng = np.random.default_rng(4)
    Z = rng.standard_normal((4, 5))
    dec = irrep_project(Z)
    comps = [dec.sync, dec.consensus, dec.deadlock, dec.dissensus]
    for a in range(4):
        for b in range(a + 1, 4):
            assert abs(np.sum(comps[a] * comps[b])) < 1e-12
    # structure: consensus rows identical and zero-sum; deadlock transposed
    assert np.allclose(dec.consensus, dec.consensus[0], atol=1e-12)
    assert np.allclose(dec.consensus.sum(axis=1), 0.0, atol=1e-12)
    assert np.allclose(dec.deadlock.T, dec.deadlock[:, 0], atol=1e-12)
    assert np.allclose(dec.deadlock.sum(axis=0), 0.0, atol=1e-12)
    assert np.allclose(dec.dissensus.sum(axis=0), 0.0, atol=1e-12)
    assert np.allclose(dec.dissensus.sum(axis=1), 0.0, atol=1e-12)


def test_flow_invariance_uses_catalog_colorings():
    # axial colorings from the catalog span synchrony subspaces too
    rng = np.random.default_rng(9)
    shape = NetworkShape(3, 4)
    cfg = make_config(shape, (0.1, -0.4, 0.3, 0.2), lam=0.9)
    for entry in enumerate_axial(shape):
        levels = rng.standard_normal(entry.coloring.num_colors)
        Z = levels[entry.coloring.to_array()]
        G = vector_field(Z, cfg)
        for cls in entry.coloring.color_classes():
            assert len({G[i, j] for (i, j) in cls}) == 1
