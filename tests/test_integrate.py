import dataclasses
import itertools
import math
import sys

import numpy as np
import pytest

from helpers import (gershgorin_bound, numerical_jacobian, reference_integrate,
                     reference_rkc_coefficients, uniform_slope_jacobian)
from indecision import (
    BUILTIN_SCENARIOS,
    GainParams,
    IntegratorConfig,
    ModelConfig,
    NetworkShape,
    SigmoidParams,
    all_colorings,
    analytic_eigenvalues,
    axial_values,
    coefficients_from_gains,
    enumerate_axial,
    get_scenario,
    integrate,
    integrate_batch,
    is_balanced,
    jacobian,
    random_near_origin,
    spectral_bound,
    trajectory_to_csv,
)
from indecision.integrate import (_balanced_classes, _centre_spectrum, _rkc_coefficients,
                                  _stage_count)

# the module, which the package's integrate function shadows as an attribute
integrate_module = sys.modules["indecision.integrate"]


def stable_config(shape=NetworkShape(3, 4)):
    # all four coefficients negative at lam = 0.5: origin attracts
    gains = GainParams(-0.5, 0.1, -0.2, 0.05)
    return ModelConfig(shape=shape, gains=gains,
                       sigmoids=SigmoidParams(0.5, 0.3), lam=0.5)


# ---------------------------------------------------------------------------
# seeded initial conditions
# ---------------------------------------------------------------------------

def test_random_near_origin_deterministic():
    shape = NetworkShape(4, 6)
    a = random_near_origin(shape, 1e-3, 42)
    b = random_near_origin(shape, 1e-3, 42)
    assert np.array_equal(a, b)


def test_random_near_origin_bound_and_shape():
    Z = random_near_origin(NetworkShape(5, 3), 1e-3, 0)
    assert Z.shape == (5, 3)
    assert np.abs(Z).max() <= 1e-3


def test_random_near_origin_distinct_seeds():
    shape = NetworkShape(4, 6)
    assert not np.array_equal(random_near_origin(shape, 1e-3, 0),
                              random_near_origin(shape, 1e-3, 1))


def test_random_near_origin_rejects_bad_radius():
    with pytest.raises(ValueError):
        random_near_origin(NetworkShape(2, 2), 0.0, 0)
    with pytest.raises(ValueError):
        random_near_origin(NetworkShape(2, 2), -1.0, 0)
    # the draw spans 2 * radius, which overflows past 8.99e307
    with pytest.raises(ValueError):
        random_near_origin(NetworkShape(2, 2), 1e308, 0)


@pytest.mark.parametrize("radius", [1e-300, 1e-3, 1e300])
def test_random_near_origin_is_numpys_pcg64_stream(radius):
    # numpy's generator is the oracle: the same stream, bit for bit
    seeds = [*range(500), 2**32 - 1, 2**32, 2**64 + 5, 2**200, np.int64(7), np.int64(2**40)]
    shapes = [NetworkShape(m, n) for m in range(2, 8) for n in range(2, 7)]
    for i, seed in enumerate(seeds):
        shape = shapes[i % len(shapes)]
        expected = np.random.default_rng(seed).uniform(-radius, radius, (shape.m, shape.n))
        got = random_near_origin(shape, radius, seed)
        assert got.dtype == expected.dtype and got.shape == expected.shape
        assert got.tobytes() == expected.tobytes(), (seed, shape)


def test_random_near_origin_rejects_negative_seed():
    with pytest.raises(ValueError, match="non-negative"):
        random_near_origin(NetworkShape(2, 2), 1e-3, -1)
    with pytest.raises(ValueError):
        np.random.default_rng(-1)


# ---------------------------------------------------------------------------
# integration
# ---------------------------------------------------------------------------

def test_integrate_from_exact_equilibrium():
    cfg = stable_config()
    traj, res = integrate(np.zeros((3, 4)), cfg, IntegratorConfig())
    assert res.converged
    assert res.elapsed_time == 0.0
    assert np.all(res.final == 0.0)
    assert traj.times[0] == 0.0


def test_integrate_decays_to_zero_below_threshold():
    # all analytic eigenvalues negative: the origin is locally stable
    cfg = stable_config()
    coeffs = coefficients_from_gains(cfg.gains, cfg.shape)
    assert all(v < 0 for v, _ in analytic_eigenvalues(coeffs, cfg.lam, cfg.shape))
    Z0 = random_near_origin(cfg.shape, 1e-3, 3)
    traj, res = integrate(Z0, cfg, IntegratorConfig(t_max=100.0))
    assert res.converged
    assert res.residual <= 1e-9
    assert np.abs(res.final).max() <= 1e-8


def test_integrate_deterministic_bitwise():
    cfg = stable_config()
    Z0 = random_near_origin(cfg.shape, 1e-2, 5)
    icfg = IntegratorConfig(t_max=50.0)
    t1, r1 = integrate(Z0, cfg, icfg)
    t2, r2 = integrate(Z0, cfg, icfg)
    assert t1.times == t2.times
    assert all(np.array_equal(a, b) for a, b in zip(t1.states, t2.states))
    assert np.array_equal(r1.final, r2.final)


def test_trajectory_contains_initial_and_final():
    cfg = stable_config()
    Z0 = random_near_origin(cfg.shape, 1e-2, 1)
    traj, res = integrate(Z0, cfg, IntegratorConfig(t_max=30.0))
    assert np.array_equal(traj.states[0], Z0)
    assert np.array_equal(traj.states[-1], res.final)
    assert all(b > a for a, b in zip(traj.times, traj.times[1:]))


def run_permuted_pair(t_max):
    # one start of the lambda = 1.1 config and a conjugate of it; every
    # sampled state of the second run must be the conjugate, bitwise
    rng = np.random.default_rng(8)
    shape = NetworkShape(4, 6)
    cfg = ModelConfig(shape=shape, gains=GainParams(0.2, -0.3, 0.4, -0.05),
                      sigmoids=SigmoidParams(0.5, 0.3), lam=1.1)
    Z0 = rng.uniform(-0.5, 0.5, size=(4, 6))
    sigma, tau = rng.permutation(4), rng.permutation(6)
    icfg = IntegratorConfig(t_max=t_max)
    t1, r1 = integrate(Z0, cfg, icfg)
    t2, r2 = integrate(Z0[np.ix_(sigma, tau)], cfg, icfg)
    assert t1.times == t2.times
    for A, B in zip(t1.states, t2.states):
        assert np.array_equal(B, A[np.ix_(sigma, tau)])
    return r1, r2, np.ix_(sigma, tau)


def test_integrate_symmetry_transport_exact():
    # conjugating the initial state conjugates every sampled state bitwise
    run_permuted_pair(20.0)


def test_newton_finish_symmetry_transport_exact():
    # the same through the Newton finish: the final is conjugate too
    r1, r2, perm = run_permuted_pair(200.0)
    assert (r1.stop_reason, r2.stop_reason) == ("newton", "newton")
    assert np.array_equal(r2.final, r1.final[perm])


def test_integrate_flow_invariance_exact():
    # a start inside a synchrony subspace never leaves it, bitwise
    shape = NetworkShape(3, 4)
    cfg = ModelConfig(shape=shape, gains=GainParams(0.2, -0.3, 0.4, -0.05),
                      sigmoids=SigmoidParams(0.5, 0.3), lam=0.9)
    entry = enumerate_axial(shape)[0]
    levels = np.array([0.7, -0.4, 0.1, 0.9])[:entry.coloring.num_colors]
    Z0 = levels[entry.coloring.to_array()]
    traj, _ = integrate(Z0, cfg, IntegratorConfig(t_max=20.0))
    for Z in traj.states:
        for cls in entry.coloring.color_classes():
            assert len({Z[i, j] for (i, j) in cls}) == 1


def test_newton_finish_keeps_exotic_synchrony_exact():
    # a start on the exact line of 4x6 catalog entry #8 (Exotic) ends at
    # the exotic equilibrium through the Newton finish, constant on every
    # color class bitwise
    sc = get_scenario("dissensus-exotic-4x6")
    entry = enumerate_axial(sc.shape)[8]
    traj, res = integrate(np.array(axial_values(entry, 0.3), dtype=float), sc.model_config(),
                          sc.integrator_config())
    assert res.converged and res.stop_reason == "newton"
    assert res.spectral_abscissa < 0
    for Z in traj.states:
        for cls in entry.coloring.color_classes():
            assert len({Z[i, j] for (i, j) in cls}) == 1


def tied_pairs(cells):
    # a partition of the grid's cells as the set of its same-colored pairs:
    # one partition refines another exactly when its set is a subset
    flat = np.ravel(cells).tolist()
    return frozenset((p, q) for p, q in itertools.combinations(range(len(flat)), 2)
                     if flat[p] == flat[q])


@pytest.mark.parametrize("m, n", [(2, 2), (2, 3), (3, 2), (3, 3)])
def test_balanced_classes_are_the_coarsest_balanced_refinement(m, n):
    # every coloring, its colors as float values: the classes are balanced,
    # refine the input, are refined by every balanced refinement of it, and
    # are the input's own classes when it is balanced; the colors run from
    # 0, and first holds each color's first cell in row-major order
    colorings = list(all_colorings(m, n))
    balanced = {tied_pairs(c.cells) for c in colorings if is_balanced(c)}
    for c in colorings:
        labels, first = _balanced_classes(np.array(c.cells, dtype=float))
        got, given = tied_pairs(labels), tied_pairs(c.cells)
        assert got in balanced and got <= given
        assert all(b <= got for b in balanced if b <= given)
        assert (got == given) == (given in balanced)
        assert np.array_equal(np.unique(labels, return_index=True)[1], first)
        assert np.array_equal(labels.ravel()[first], np.arange(len(first)))


def test_balanced_classes_follow_a_permutation_of_the_grid():
    # a conjugate of the input gets the conjugate labels, numbered alike:
    # every coloring of 2 x 2, 2 x 3 and 3 x 2, and every 25th of 3 x 3
    rng = np.random.default_rng(3)
    for m, n, stride in ((2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 3, 25)):
        for c in itertools.islice(all_colorings(m, n), 0, None, stride):
            Z = np.array(c.cells, dtype=float)
            perm = np.ix_(rng.permutation(m), rng.permutation(n))
            assert np.array_equal(_balanced_classes(Z[perm])[0], _balanced_classes(Z)[0][perm])


def test_singular_quotient_jacobian_leaves_the_run_to_rkc(monkeypatch):
    # the config and the step are built first, since the gains come from
    # np.linalg.solve; with every quotient solve singular, each finish
    # returns None and RKC goes on past the sample at which the finish
    # stopped the run, through the same samples up to there
    sc = get_scenario("dissensus-exotic-4x6")
    cfg, icfg = sc.model_config(), sc.integrator_config()
    Z0 = random_near_origin(sc.shape, sc.radius, 0)
    traj, res = integrate(Z0, cfg, icfg)
    assert res.stop_reason == "newton"

    def singular(*args):
        raise np.linalg.LinAlgError("Singular matrix")

    newton, finishes = integrate_module._newton_finish, []
    monkeypatch.setattr(np.linalg, "solve", singular)
    monkeypatch.setattr(integrate_module, "_newton_finish",
                        lambda *args: finishes.append(newton(*args)) or finishes[-1])
    rkc_traj, rkc = integrate(Z0, cfg, icfg)
    assert finishes and all(finish is None for finish in finishes)
    assert rkc.stop_reason in ("tolerance", "t_max") and rkc.n_steps > res.n_steps
    assert rkc_traj.times[:len(traj.times)] == traj.times
    for A, B in zip(traj.states[:-1], rkc_traj.states):
        assert np.array_equal(A, B)


def test_unstable_equilibrium_is_not_convergence():
    # a start of radius 1e-9 has residual below tolerance from its first
    # step on (t = 0.33), next to the unstable origin; the run escapes and
    # settles on a stable state
    sc = get_scenario("dissensus-exotic-4x6")
    cfg = sc.model_config()
    Z0 = random_near_origin(sc.shape, 1e-9, 0)
    _, early = integrate(Z0, cfg, IntegratorConfig(step=sc.integrator_config().step, t_max=10.0))
    assert not early.converged and early.stop_reason == "t_max"
    assert early.residual <= IntegratorConfig.equilibrium_tol and early.spectral_abscissa > 0
    _, res = integrate(Z0, cfg, sc.integrator_config())
    assert res.elapsed_time > 1.5
    if res.converged:
        assert res.spectral_abscissa < 0
        assert np.abs(res.final).max() > 0.1
        assert res.spectral_abscissa == np.linalg.eigvals(jacobian(res.final, cfg)).real.max()


def test_stability_gate_tries_a_resting_start_once_before_t_max(monkeypatch):
    # on the unstable origin every sample has residual 0: the gate tries it
    # at the first sample and at t_max, and the t_max report reuses that
    # abscissa instead of computing it again
    cfg = get_scenario("consensus-4x6").model_config()
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda J: calls.append(J) or eigvals(J))
    _, res = integrate(np.zeros((4, 6)), cfg, IntegratorConfig(step=0.1, t_max=20.0))
    assert res.stop_reason == "t_max" and res.residual == 0.0
    assert res.spectral_abscissa == eigvals(jacobian(np.zeros((4, 6)), cfg)).real.max() > 0
    assert len(calls) == 2


@pytest.mark.parametrize("stop,lam,step,radius,t_max", [
    # at lam = 0 the field is -Z: a start with residual over sqrt(tol)
    # decays to the Newton finish, which solves the linear field at once
    ("newton", 0.0, 1.3, 4e-5, 100.0),
    ("t_max", 0.5, 0.01, 1e-2, 5.0)])
def test_n_steps_counts_the_accepted_steps(stop, lam, step, radius, t_max):
    cfg = dataclasses.replace(stable_config(), lam=lam)
    Z0 = random_near_origin(cfg.shape, radius, 0)
    icfg = IntegratorConfig(step=step, t_max=t_max)
    traj, res = integrate(Z0, cfg, icfg)
    assert res.stop_reason == stop
    assert res.n_steps > 0
    # every accepted step is sampled once after the start, rejected ones never
    assert res.n_steps == len(traj.times) - 1
    ref_traj, ref = reference_integrate(Z0, cfg, icfg)
    assert traj.times == ref_traj.times[:len(traj.times)]
    if stop == "t_max":
        assert res.n_steps == ref.n_steps and res.elapsed_time == t_max


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_n_evals_counts_the_field_evaluations(name, monkeypatch):
    # n_evals is the count of a wrapped field, each member of a stack
    # counted once, with the evaluations of the Newton finish left out; a
    # member's count in a batch is its count alone
    sc = get_scenario(name)
    cfg, icfg = sc.model_config(), sc.integrator_config()
    field, slopes, jvp = integrate_module._compiled_model(cfg)
    newton = integrate_module._newton_finish
    counts, phase = {"run": 0, "newton": 0}, ["run"]

    def counted_field(Z):
        counts[phase[0]] += len(Z)
        return field(Z)

    def counted_newton(*args):
        phase[0] = "newton"
        try:
            return newton(*args)
        finally:
            phase[0] = "run"
    monkeypatch.setattr(integrate_module, "_compiled_model", lambda c: (counted_field, slopes, jvp))
    monkeypatch.setattr(integrate_module, "_newton_finish", counted_newton)
    starts = [random_near_origin(sc.shape, sc.radius, seed) for seed in range(3)]
    runs = integrate_batch(starts, cfg, icfg)
    assert counts["run"] == sum(res.n_evals for _, res in runs)
    assert counts["newton"] > 0 and all(res.stop_reason == "newton" for _, res in runs)
    for Z0, (_, res) in zip(starts, runs):
        counts["run"] = 0
        _, alone = integrate(Z0, cfg, icfg)
        assert counts["run"] == alone.n_evals == res.n_evals > 2 * res.n_steps


def test_integrate_reports_divergence():
    cfg = stable_config()
    Z0 = np.zeros((3, 4))
    Z0[0, 0] = np.nan
    traj, res = integrate(Z0, cfg, IntegratorConfig(t_max=10.0))
    assert res.diverged and not res.converged
    assert (res.stop_reason, res.spectral_abscissa) == ("diverged", None)
    assert res.residual == float("inf")
    assert res.elapsed_time == 0.0


def assert_same_run(got, want):
    (traj, res), (ref_traj, ref_res) = got, want
    assert traj.times == ref_traj.times
    assert len(traj.states) == len(ref_traj.states)
    for A, B in zip(traj.states, ref_traj.states):
        assert np.array_equal(A, B, equal_nan=True)
    assert np.array_equal(res.final, ref_res.final, equal_nan=True)
    assert (res.residual, res.elapsed_time, res.n_steps, res.n_evals, res.converged,
            res.diverged) == \
        (ref_res.residual, ref_res.elapsed_time, ref_res.n_steps, ref_res.n_evals,
         ref_res.converged, ref_res.diverged)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_integrate_matches_reference_bitwise_on_scenarios(name):
    sc = get_scenario(name)
    cfg = sc.model_config()
    icfg = IntegratorConfig(step=sc.integrator_config().step, t_max=60.0)
    Z0 = random_near_origin(sc.shape, sc.radius, 0)
    assert_same_run(integrate(Z0, cfg, icfg), reference_integrate(Z0, cfg, icfg))


@pytest.mark.parametrize("nan_start", [False, True])
def test_integrate_matches_reference_bitwise_on_stable_config(nan_start):
    cfg = stable_config()
    Z0 = random_near_origin(cfg.shape, 1e-2, 5)
    if nan_start:
        Z0[1, 2] = np.nan
    icfg = IntegratorConfig(t_max=50.0)
    got = integrate(Z0, cfg, icfg)
    assert (got[1].converged, got[1].diverged) == (not nan_start, nan_start)
    want = reference_integrate(Z0, cfg, icfg)
    if nan_start:
        assert_same_run(got, want)
        return
    # the Newton finish stops the run at an earlier sample: every sample
    # before it is the reference's at the same t, and the final lies
    # within 1e-8 of the origin, the stable equilibrium the reference
    # approaches too
    (traj, res), (ref_traj, ref_res) = got, want
    assert res.stop_reason == "newton"
    n = len(traj.times)
    assert traj.times == ref_traj.times[:n]
    assert res.elapsed_time == traj.times[-1]
    for A, B in zip(traj.states[:-1], ref_traj.states):
        assert np.array_equal(A, B)
    assert res.residual <= icfg.equilibrium_tol
    assert np.abs(res.final).max() <= 1e-8
    assert np.abs(ref_res.final).max() < 1e-3 * np.abs(Z0).max()


def test_trajectory_does_not_alias_the_start():
    cfg = stable_config()
    Z0 = random_near_origin(cfg.shape, 1e-2, 2)
    kept = Z0.copy()
    traj, _ = integrate(Z0, cfg, IntegratorConfig(t_max=5.0))
    Z0[0, 0] = 7.0
    assert np.array_equal(traj.states[0], kept)


def assert_reported_divergence(traj, res, t):
    assert res.diverged and not res.converged
    assert (res.stop_reason, res.spectral_abscissa) == ("diverged", None)
    assert res.residual == float("inf")
    assert res.elapsed_time == t
    assert traj.times[-1] == t
    assert res.final is traj.final


def overflowing_columns():
    # rows alternate +-1e308: every column sums to 0, but the first stage
    # update takes entries past the float limit, in both signs in each
    # column
    return np.array([[1e308] * 6, [-1e308] * 6] * 2)


def overflowing_column():
    # one column sums to 0; the first stage update takes its 1e308 entry to
    # +inf and leaves the others finite
    Z0 = np.zeros((4, 6))
    Z0[:, 2] = [1e308, -5e307, -5e307, 0.0]
    return Z0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("Z0", [overflowing_columns(), overflowing_column()],
                         ids=["alternating-rows", "one-column"])
@pytest.mark.parametrize("step", [0.3, 50.0])
def test_integrate_reports_overflowing_step_as_divergence(Z0, step):
    # a start whose field is finite, but whose first step overflows at any
    # step size (at 0.3 its two-stage step is not finite; at 50 its
    # 16-stage step is not finite either): the run ends diverged at t = 0
    # with its start
    sc = get_scenario("consensus-4x6")
    traj, res = integrate(Z0, sc.model_config(), IntegratorConfig(step=step, t_max=3000.0))
    assert_reported_divergence(traj, res, 0.0)
    assert traj.times == [0.0] and res.n_steps == 0
    assert np.array_equal(res.final, Z0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("step", [5.0, 50.0, 1000.0])
def test_oversized_first_step_is_rejected_not_diverged(step):
    # a first trial step far past 1 / rho is rejected and shrunk, so the
    # run reaches the final it reaches from 1 / rho
    sc = get_scenario("consensus-4x6")
    cfg, icfg = sc.model_config(), sc.integrator_config()
    Z0 = random_near_origin(sc.shape, sc.radius, 0)
    _, want = integrate(Z0, cfg, icfg)
    _, got = integrate(Z0, cfg, IntegratorConfig(step=step, t_max=icfg.t_max))
    assert got.converged and not got.diverged
    assert np.abs(got.final - want.final).max() <= 1e-6


@pytest.mark.filterwarnings("error")
def test_overflowing_error_estimate_rejects_the_step():
    # from 2e307 in every cell a first step of 50 overflows the error
    # estimate (0.4 h (F_n + F_n+1)) but not its stages: the step is
    # rejected, not diverged, and the state decays as exp(-t)
    sc = get_scenario("consensus-4x6")
    _, res = integrate(np.full((4, 6), 2e307), sc.model_config(),
                       IntegratorConfig(step=50.0, t_max=100.0))
    assert res.stop_reason == "t_max" and res.n_steps > 0
    assert np.isfinite(res.final).all() and np.abs(res.final).max() < 2e307 * math.exp(-90)


def opposite_infinities_in_one_column():
    Z0 = np.zeros((4, 6))
    Z0[0, 2], Z0[3, 2] = np.inf, -np.inf
    return Z0


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("Z0", [np.full((4, 6), 1e308), opposite_infinities_in_one_column()],
                         ids=["overflowing", "opposite-infinities"])
def test_integrate_reports_float_limit_start_as_divergence(Z0):
    # 1e308 everywhere: the column sums overflow to +inf, the saturations
    # keep the field finite, and the first step's stage is not finite;
    # +inf and -inf in one column: the column sum and the field are NaN.
    # Either way the run ends at t = 0
    sc = get_scenario("consensus-4x6")
    traj, res = integrate(Z0, sc.model_config(), IntegratorConfig())
    assert_reported_divergence(traj, res, 0.0)
    assert traj.times == [0.0]
    assert np.array_equal(res.final, Z0)


def assert_same_member(got, want):
    assert_same_run(got, want)
    assert (got[1].stop_reason, got[1].spectral_abscissa) == \
        (want[1].stop_reason, want[1].spectral_abscissa)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_integrate_batch_members_match_one_seed_runs_bitwise(name):
    # stacks of 2 and 3 seeds, in both orders, run to their stops: every
    # member's trajectory and result are those of its start run alone
    sc = get_scenario(name)
    cfg, icfg = sc.model_config(), sc.integrator_config()
    starts = [random_near_origin(sc.shape, sc.radius, seed) for seed in range(3)]
    alone = [integrate(Z0, cfg, icfg) for Z0 in starts]
    for size in (2, 3):
        for order in (list(range(size)), list(range(size))[::-1]):
            runs = integrate_batch([starts[i] for i in order], cfg, icfg)
            assert len(runs) == size
            for i, run in zip(order, runs):
                assert_same_member(run, alone[i])


@pytest.mark.filterwarnings("error")
def test_integrate_batch_isolates_diverging_members():
    # at first trial step 5 on consensus-4x6: a NaN start (non-finite field
    # at t = 0), three starts at the float limit (1e308 everywhere and the
    # two above: a finite field, a first step of 5 rejected, and a step of
    # 0.5 whose stage is not finite), seed 0 (its oversized first step
    # rejected, converged through the Newton finish), the zero state (an
    # unstable equilibrium, run to t_max) and a converged final (a stable
    # equilibrium, stopped at once); in either order each member ends as it
    # does alone
    sc = get_scenario("consensus-4x6")
    cfg = sc.model_config()
    nan_start = np.zeros((4, 6))
    nan_start[1, 2] = np.nan
    _, settled = integrate(random_near_origin(sc.shape, sc.radius, 1), cfg,
                           sc.integrator_config())
    starts = [nan_start, np.full((4, 6), 1e308), overflowing_columns(), overflowing_column(),
              random_near_origin(sc.shape, sc.radius, 0), np.zeros((4, 6)), settled.final]
    icfg = IntegratorConfig(step=5.0, t_max=3000.0)
    alone = [integrate(Z0, cfg, icfg) for Z0 in starts]
    assert [(res.stop_reason, res.elapsed_time) for _, res in alone[:4]] == \
        [("diverged", 0.0)] * 4
    assert alone[4][1].stop_reason == "newton" and alone[4][1].elapsed_time > 0
    assert [(res.stop_reason, res.elapsed_time) for _, res in alone[5:]] == [
        ("t_max", 3000.0), ("tolerance", 0.0)]
    for got, want in [(integrate_batch(starts, cfg, icfg), alone),
                      (integrate_batch(starts[::-1], cfg, icfg), alone[::-1])]:
        for run, ref in zip(got, want):
            assert_same_member(run, ref)


def test_integrate_batch_members_do_not_alias():
    # writing into one member's final leaves the other trajectories as
    # they were
    sc = get_scenario("deadlock-4x6")
    icfg = IntegratorConfig(step=sc.integrator_config().step, t_max=30.0)
    runs = integrate_batch([random_near_origin(sc.shape, sc.radius, seed) for seed in range(3)],
                           sc.model_config(), icfg)
    kept = [[Z.copy() for Z in traj.states] for traj, _ in runs]
    runs[1][1].final[...] = 7.0
    for member in (0, 2):
        states = runs[member][0].states
        assert len(states) == len(kept[member])
        assert all(np.array_equal(A, B) for A, B in zip(states, kept[member]))


def test_rkc_step_takes_a_shared_step_as_a_float_bitwise():
    # stacks of one and of three whose members share the step and so the
    # stage count: the step as a float gives the stages, fields and error
    # norms of the step as a (B, 1, 1) array, bit for bit
    sc = get_scenario("dissensus-exotic-4x6")
    cfg = sc.model_config()
    f = integrate_module._compiled_model(cfg)[0]
    rho = spectral_bound(cfg)
    for size in (1, 3):
        Z = np.array([random_near_origin(sc.shape, 0.5, seed) for seed in range(size)])
        F = f(Z)
        for h in (0.3, 2.0, 7.5):
            s = [_stage_count(h, rho)] * size
            results = []
            for hs in (h, np.full((size, 1, 1), h)):
                Y, FY = integrate_module._rkc_step(f, Z, F, hs, s)
                results.append((Y, FY, integrate_module._error_norms(Z, Y, F, FY, hs)))
            (Y, FY, errs), (Y_ref, FY_ref, errs_ref) = results
            assert np.array_equal(Y, Y_ref) and np.array_equal(FY, FY_ref)
            assert errs == errs_ref


def test_integrate_batch_mixed_stages_and_acceptance_match_alone_runs(monkeypatch):
    # starts of amplitudes 1e-3 to 3 at a first trial step of 4: the batch
    # takes steps with shared and with mixed stage counts, with shared and
    # per-member h, in which some members accept and others reject, and
    # steps that all reject; each member still runs as it does alone
    sc = get_scenario("consensus-4x6")
    cfg, icfg = sc.model_config(), IntegratorConfig(step=4.0, t_max=100.0)
    starts = [random_near_origin(sc.shape, radius, seed)
              for seed, radius in enumerate((1e-3, 0.1, 0.3, 1.0, 3.0))]
    step, norms = integrate_module._rkc_step, integrate_module._error_norms
    seen, kind = set(), []

    def rkc_step(f, Z, F, h, s):
        kind[:] = [len(set(s)) > 1, isinstance(h, float)]
        return step(f, Z, F, h, s)

    def error_norms(*args):
        errs = norms(*args)
        seen.add((*kind, min(errs) <= 1.0, max(errs) <= 1.0))
        return errs

    monkeypatch.setattr(integrate_module, "_rkc_step", rkc_step)
    monkeypatch.setattr(integrate_module, "_error_norms", error_norms)
    runs = integrate_batch(starts, cfg, icfg)
    # (mixed stage counts, float h, some accepted, all accepted)
    assert {(True, False, True, False), (False, False, True, False),
            (False, True, False, False), (False, True, True, True)} <= seen
    for run, Z0 in zip(runs, starts):
        assert_same_member(run, integrate(Z0, cfg, icfg))


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_tighter_tolerance_consistency_on_scenario(name, monkeypatch):
    # accuracy check: at a tenth of the step tolerances, each of three seeds
    # takes more steps and ends on the same final within 1e-6
    sc = get_scenario(name)
    cfg, icfg = sc.model_config(), sc.integrator_config()
    starts = [random_near_origin(sc.shape, sc.radius, seed) for seed in range(3)]
    loose = integrate_batch(starts, cfg, icfg)
    monkeypatch.setattr(integrate_module, "ERROR_RTOL", integrate_module.ERROR_RTOL / 10)
    monkeypatch.setattr(integrate_module, "ERROR_ATOL", integrate_module.ERROR_ATOL / 10)
    tight = integrate_batch(starts, cfg, icfg)
    for (_, a), (_, b) in zip(loose, tight):
        assert a.converged and b.converged
        assert b.n_steps > a.n_steps
        assert np.abs(a.final - b.final).max() <= 1e-6


# ---------------------------------------------------------------------------
# the derived step
# ---------------------------------------------------------------------------

SWEEP_LAMBDAS = (0.0, 0.5, 0.9, 0.97, 1.03, 1.1, 1.5)


def rkc_polynomial(s, z):
    # the stability polynomial P_s(z) of an s-stage step: the stages of the
    # step applied to y' = mu y, y_0 = 1, with z = h mu, coefficients and
    # all, as the integrator runs them
    coef = _rkc_coefficients(s)
    prev2, prev = np.ones_like(z), 1.0 + coef[1, 3] * z
    for j in range(2, s + 1):
        c0, mu, nu, mut, gt = coef[j]
        prev2, prev = prev, c0 + mu * prev + nu * prev2 + mut * z * prev + gt * z
    return prev


def test_rkc_stability_polynomial_is_bounded_on_its_interval():
    # every stage count s of a step with h rho <= 40,000 (the built-ins'
    # whole horizon spans t_max rho < 10,000): s is chosen for h rho below
    # (s^2 - 1) / 1.54, and the step's polynomial is bounded by 1 on
    # [-(s^2 - 1) / 1.54, 0], so no real eigenvalue in [-rho, 0] is
    # amplified; it agrees with exp(z) to second order, and the
    # coefficients are those of the reference
    z = np.linspace(-1.0, 0.0, 4001)
    for s in range(2, _stage_count(40_000.0, 1.0) + 1):
        assert _stage_count((s * s - 1) / 1.54 * (1 - 1e-12), 1.0) == s
        assert _rkc_coefficients(s)[1:].tolist() == \
            [list(c) for c in reference_rkc_coefficients(s).values()]
        assert np.abs(rkc_polynomial(s, z * (s * s - 1) / 1.54)).max() <= 1 + 1e-12
        small = np.array([-1e-3, -1e-4])
        taylor = 1 + small + small ** 2 / 2
        assert np.all(np.abs(rkc_polynomial(s, small) - taylor) <= np.abs(small) ** 3)


def centre_slopes(cfg):
    # the centres of the slope ranges (0, 1 / (1 - tanh(sk)^2)]
    return [0.5 / (1.0 - np.tanh(s) ** 2) for s in (cfg.sigmoids.s1, cfg.sigmoids.s2)]


def assert_bounded_spectrum(Z, cfg, rho):
    # Bauer-Fike: J(Z) is within eps of the symmetric centre Jacobian in the
    # 2-norm, so every eigenvalue lies within eps of a centre eigenvalue, and
    # the spectral radius is <= max |centre| + eps = rho
    centres, eps = _centre_spectrum(cfg)
    J = jacobian(Z, cfg)
    assert np.linalg.norm(J - uniform_slope_jacobian(cfg, *centre_slopes(cfg)), 2) <= eps
    eigs = np.linalg.eigvals(J)
    assert np.abs(eigs[:, None] - np.array(centres)).min(axis=1).max() <= eps
    assert np.abs(eigs).max() <= rho


def random_configs(rng, count):
    # random gains, offsets, shapes and lambda of either sign
    for _ in range(count):
        shape = NetworkShape(int(rng.integers(2, 8)), int(rng.integers(2, 8)))
        s1, s2 = (float(x) for x in rng.uniform(0.05, 1.5, 2) * rng.choice([-1, 1], 2))
        yield ModelConfig(shape=shape, gains=GainParams(*rng.normal(0.0, 1.0, 4)),
                          sigmoids=SigmoidParams(s1, s2), lam=float(rng.uniform(-2.0, 2.0)))


def step_test_configs(rng):
    sc = get_scenario("consensus-4x6")
    configs = [get_scenario(name).model_config() for name in sorted(BUILTIN_SCENARIOS)]
    configs += [sc.model_config(lam) for lam in SWEEP_LAMBDAS] + [stable_config()]
    return configs + list(random_configs(rng, 40))


def test_step_bound_covers_the_spectrum_at_random_states():
    rng = np.random.default_rng(3)
    for cfg in step_test_configs(np.random.default_rng(13)):
        rho = spectral_bound(cfg)
        for scale in (1e-3, 0.3, 1.0, 3.0):
            Z = rng.uniform(-scale, scale, size=(cfg.shape.m, cfg.shape.n))
            assert_bounded_spectrum(Z, cfg, rho)


@pytest.mark.parametrize("name", sorted(BUILTIN_SCENARIOS))
def test_step_bound_covers_the_spectrum_along_a_scenario_run(name):
    sc = get_scenario(name)
    cfg = sc.model_config()
    rho = spectral_bound(cfg)
    traj, res = integrate(random_near_origin(sc.shape, sc.radius, 0), cfg,
                          sc.integrator_config())
    assert res.converged
    for Z in traj.states:
        assert_bounded_spectrum(Z, cfg, rho)


def test_centre_eigenvalues_are_the_uniform_slope_spectrum():
    # the helper's formula is reference_jacobian's: at the origin every slope is 1
    cfg = stable_config()
    assert np.allclose(uniform_slope_jacobian(cfg, 1.0, 1.0),
                       jacobian(np.zeros((3, 4)), cfg), rtol=0, atol=1e-15)
    for cfg in step_test_configs(np.random.default_rng(11)):
        m, n = cfg.shape.m, cfg.shape.n
        Jc = uniform_slope_jacobian(cfg, *centre_slopes(cfg))
        assert np.allclose(Jc, Jc.T, rtol=0, atol=1e-14)
        centres, _ = _centre_spectrum(cfg)
        mults = ((m - 1) * (n - 1), n - 1, m - 1, 1)
        want = sorted(mu for mu, k in zip(centres, mults) for _ in range(k))
        assert np.allclose(np.linalg.eigvalsh(Jc), want, rtol=0, atol=1e-12)


def test_spectral_bound_is_never_above_the_gershgorin_bound():
    for cfg in step_test_configs(np.random.default_rng(12)):
        assert spectral_bound(cfg) <= gershgorin_bound(cfg)


def test_integrator_config_takes_the_derived_step():
    # the first trial step is 1 / rho: a step of two stages, whatever the
    # config
    sc = get_scenario("consensus-4x6")
    for lam in (None,) + SWEEP_LAMBDAS:
        rho = spectral_bound(sc.model_config(lam))
        assert sc.integrator_config(lam).step == 1.0 / rho
        assert _stage_count(1.0 / rho, rho) == 2


# ---------------------------------------------------------------------------
# finite-difference jacobian
# ---------------------------------------------------------------------------

def test_jacobian_spectrum_at_origin():
    cfg = stable_config()
    J = numerical_jacobian(np.zeros((3, 4)), cfg, 1e-6)
    coeffs = coefficients_from_gains(cfg.gains, cfg.shape)
    want = sorted(v for v, mult in analytic_eigenvalues(coeffs, cfg.lam, cfg.shape)
                  for _ in range(mult))
    got = sorted(np.linalg.eigvals(J).real)
    assert np.allclose(got, want, atol=1e-6)


def test_jacobian_nearly_constant_in_linear_regime():
    # with states ~1e-9 the saturations are linear to machine precision
    cfg = stable_config()
    rng = np.random.default_rng(6)
    J0 = numerical_jacobian(np.zeros((3, 4)), cfg, 1e-5)
    J1 = numerical_jacobian(rng.uniform(-1e-9, 1e-9, size=(3, 4)), cfg, 1e-5)
    assert np.abs(J1 - J0).max() <= 1e-8


def test_jacobian_rejects_bad_step():
    cfg = stable_config()
    with pytest.raises(ValueError):
        numerical_jacobian(np.zeros((3, 4)), cfg, 0.0)


def test_trajectory_csv_format(tmp_path):
    cfg = stable_config(NetworkShape(2, 3))
    Z0 = random_near_origin(cfg.shape, 1e-2, 9)
    traj, _ = integrate(Z0, cfg, IntegratorConfig(t_max=5.0))
    path = tmp_path / "traj.csv"
    trajectory_to_csv(traj, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "t,z_1_1,z_1_2,z_1_3,z_2_1,z_2_2,z_2_3"
    assert len(lines) == 1 + len(traj.times)
    first = [float(x) for x in lines[1].split(",")]
    assert first[0] == 0.0
    assert np.allclose(first[1:], Z0.ravel(), rtol=0, atol=0)
