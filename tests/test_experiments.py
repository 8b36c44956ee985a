import importlib
import json
import os
import subprocess
import sys
from pathlib import Path
from xml.etree import ElementTree

import numpy as np
import pytest

from indecision import (
    AmbiguousQuantizationError,
    CriticalCoefficients,
    NetworkShape,
    PatternClass,
    Scenario,
    SigmoidParams,
    coefficients_from_gains,
    get_scenario,
    run_scenario,
    sweep_lambda,
    write_heatmap_svg,
)
from indecision import experiments
from indecision.cli import main as cli_main


def fast_consensus_2x2(seeds=(0, 1), epsilon=0.05):
    """Small, quick scenario: two agents, two options, consensus-type."""
    return Scenario(
        name="mini-consensus-2x2",
        shape=NetworkShape(2, 2),
        coefficients=CriticalCoefficients(c_d=-1.0, c_c=1.0, c_dl=-1.0, c_s=-1.0),
        sigmoids=SigmoidParams(0.5, 0.3),
        epsilon=epsilon,
        seeds=tuple(seeds),
    )


# ---------------------------------------------------------------------------
# scenario mechanics
# ---------------------------------------------------------------------------

def test_builtin_scenarios_have_unit_thresholds():
    for name in ("consensus-4x6", "deadlock-4x6",
                 "dissensus-orbital-4x6", "dissensus-exotic-4x6"):
        sc = get_scenario(name)
        assert sc.first_threshold().lam == 1.0
        assert sc.lambda_value() == pytest.approx(1.0 + sc.epsilon)


def test_scenario_gains_invert_coefficients():
    sc = get_scenario("dissensus-orbital-4x6")
    c2 = coefficients_from_gains(sc.gains(), sc.shape)
    assert np.allclose(c2.as_tuple(), sc.coefficients.as_tuple(), atol=1e-12)


def test_unknown_scenario():
    with pytest.raises(KeyError):
        get_scenario("nope")


@pytest.mark.parametrize("bad", [
    {"seeds": ()}, {"quantize_tol": 0.0}, {"radius": 0.0}, {"epsilon": True},
    {"epsilon": -0.01}, {"radius": None}, {"seeds": (True, False)}, {"t_max": 0.0},
    {"t_max": True}, {"coefficients": CriticalCoefficients(True, 1.0, -1.0, -1.0)},
    {"sigmoids": (0.5, True)}, {"seeds": (0, -1)}, {"name": "runs/a"},
    {"radius": float("nan")}, {"radius": float("inf")}, {"quantize_tol": float("nan")},
    {"quantize_tol": float("inf")}, {"epsilon": float("nan")}, {"epsilon": float("inf")},
    {"sigmoids": (0.5, float("nan"))}, {"sigmoids": (20.0, 0.3)}, {"sigmoids": (0.3, -19.07)},
    {"radius": 1e308},
])
def test_scenario_rejects_invalid_fields(bad):
    # sigmoid offsets are given as pairs, since SigmoidParams may reject them itself
    with pytest.raises(ValueError):
        if "sigmoids" in bad:
            bad = {**bad, "sigmoids": SigmoidParams(*bad["sigmoids"])}
        fast_consensus_2x2().replace(**bad)


@pytest.mark.parametrize("t_max", [0.01, float("inf")])
def test_scenario_rejects_t_max_under_one_step_or_infinite_when_run(t_max):
    # the step is derived per lambda, so the check runs with the config
    sc = fast_consensus_2x2().replace(t_max=t_max)
    with pytest.raises(ValueError, match="step < t_max < inf"):
        sc.integrator_config()


@pytest.mark.parametrize("s1", [5.0, 8.0, 19.0])
def test_scenario_rejects_a_run_of_too_many_steps(s1):
    # rho grows like 1 / (1 - tanh(s1)^2): t_max spans 1.0e7 steps of 1/rho
    # at s1 = 5, 8.5e18 at s1 = 19, against fewer than 10,000 for the
    # built-ins
    sc = fast_consensus_2x2().replace(sigmoids=SigmoidParams(s1, 0.3))
    with pytest.raises(ValueError, match="steps of 1/rho"):
        sc.integrator_config()
    for builtin in experiments.BUILTIN_SCENARIOS.values():
        icfg = builtin.integrator_config()
        assert icfg.t_max / icfg.step < 10_000


def test_scenario_from_dict_rejects_booleans_by_name():
    raw = {"epsilon": True, "seeds": [True, False], "radius": True,
           "coefficients": {"c_d": -1.0, "c_c": True, "c_dl": -1.0, "c_s": -1.0}}
    with pytest.raises(ValueError) as exc:
        Scenario.from_dict(raw, base=get_scenario("consensus-4x6"))
    assert "seeds" in str(exc.value)
    with pytest.raises(ValueError, match="epsilon, radius, coefficients.c_c"):
        Scenario.from_dict({**raw, "seeds": [0]}, base=get_scenario("consensus-4x6"))


def test_integrator_config_sizes_horizon_from_lambda():
    # growth rate |lam c - 1| with c = 1 is 0.5 at both lambdas: 15 / 0.5 + 1500
    sc = get_scenario("consensus-4x6")
    assert sc.integrator_config(0.5).t_max == sc.integrator_config(1.5).t_max == 1530.0
    assert sc.replace(t_max=50.0).integrator_config(1.5).t_max == 50.0


def test_scenario_from_dict_overrides_base():
    sc = get_scenario("dissensus-exotic-4x6")
    raw = {"epsilon": 0.02, "integrator": {"t_max": 50.0}}
    assert Scenario.from_dict(raw, base=sc) == sc.replace(epsilon=0.02, t_max=50.0)


@pytest.mark.parametrize("raw, key", [
    ({"epsilo": 0.5}, "epsilo"),
    ({"integrator": {"tmax": 5}}, "integrator.tmax"),
    ({"integrator": {"equilibrium_tol": 1e-9}}, "integrator.equilibrium_tol"),
    ({"integrator": {"record_stride": 10}}, "integrator.record_stride"),
    ({"integrator": {"step": 0.05}}, "integrator.step"),
])
def test_scenario_from_dict_rejects_unknown_keys(raw, key):
    with pytest.raises(ValueError, match=key):
        Scenario.from_dict(raw, base=get_scenario("consensus-4x6"))


@pytest.mark.parametrize("raw, key", [
    ({"seeds": 5}, "seeds"),
    ({"seeds": [0.5]}, "seeds"),
    ({"integrator": 3}, "integrator"),
    ({"shape": [4]}, "shape"),
    ({"coefficients": [1.0]}, "coefficients"),
    ({"epsilon": "0.5"}, "epsilon"),
    ({"integrator": {"t_max": "long"}}, "t_max"),
])
def test_scenario_from_dict_names_malformed_key(raw, key):
    with pytest.raises(ValueError, match=key):
        Scenario.from_dict(raw, base=get_scenario("consensus-4x6"))


def test_scenario_from_dict_rejects_non_object():
    with pytest.raises(ValueError, match="JSON object"):
        Scenario.from_dict([1])


def test_scenario_from_dict_needs_coefficients_without_base():
    with pytest.raises(ValueError):
        Scenario.from_dict({"name": "x", "shape": [2, 2], "epsilon": 0.05})


def test_run_scenario_mini_consensus():
    reports = run_scenario(fast_consensus_2x2())
    assert all(r.converged for r in reports)
    for r in reports:
        assert r.pattern.pattern_class is PatternClass.CONSENSUS
        assert r.axial_index is None  # consensus is not a dissensus-axial pattern


def test_converged_attractor_is_linearly_stable():
    # the jacobian spectrum at a converged scenario final has negative real parts
    from helpers import numerical_jacobian
    from indecision import integrate, random_near_origin
    sc = fast_consensus_2x2(seeds=(0,))
    cfg = sc.model_config()
    Z0 = random_near_origin(sc.shape, sc.radius, 0)
    _, res = integrate(Z0, cfg, sc.integrator_config())
    assert res.converged
    spectrum = np.linalg.eigvals(numerical_jacobian(res.final, cfg, 1e-6))
    assert spectrum.real.max() < 0


def test_run_scenario_outputs_are_deterministic(tmp_path):
    sc = fast_consensus_2x2(seeds=(3,))
    d1, d2 = tmp_path / "a", tmp_path / "b"
    run_scenario(sc, out_dir=str(d1))
    run_scenario(sc, out_dir=str(d2))
    for name in ("mini-consensus-2x2_seed3.json",
                 "mini-consensus-2x2_seed3.csv",
                 "mini-consensus-2x2_seed3.svg",
                 "mini-consensus-2x2_summary.json"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()


def test_run_report_json_shape(tmp_path):
    sc = fast_consensus_2x2(seeds=(0,))
    run_scenario(sc, out_dir=str(tmp_path))
    payload = json.loads((tmp_path / "mini-consensus-2x2_seed0.json").read_text())
    assert payload["scenario"] == "mini-consensus-2x2"
    assert payload["converged"] is True
    assert payload["stop_reason"] in ("tolerance", "newton")
    assert payload["spectral_abscissa"] < 0
    assert payload["pattern"]["class"] == "Consensus"
    assert len(payload["final"]) == 2 and len(payload["final"][0]) == 2
    summary = json.loads((tmp_path / "mini-consensus-2x2_summary.json").read_text())
    assert summary["n_converged"] == 1
    assert summary["class_counts"] == {"Consensus": 1}


def test_unconverged_runs_are_not_classified(tmp_path):
    sc = fast_consensus_2x2(seeds=(0, 1)).replace(t_max=1.0)
    reports = run_scenario(sc, out_dir=str(tmp_path))
    assert all(not r.converged and not r.diverged for r in reports)
    assert all(r.pattern is None for r in reports)
    payload = json.loads((tmp_path / "mini-consensus-2x2_seed0.json").read_text())
    assert payload["pattern"] is None
    assert payload["stop_reason"] == "t_max"
    summary = json.loads((tmp_path / "mini-consensus-2x2_summary.json").read_text())
    assert summary["n_converged"] == 0
    assert summary["class_counts"] == {"Unconverged": 2}


@pytest.fixture
def ambiguous_first(monkeypatch):
    """The first quantization of the test is ambiguous, the others are not."""
    quantize = experiments.quantize_to_coloring
    calls = []

    def ambiguous_first(Z, tol):
        calls.append(tol)
        if len(calls) == 1:
            raise AmbiguousQuantizationError("cluster too wide")
        return quantize(Z, tol)
    monkeypatch.setattr(experiments, "quantize_to_coloring", ambiguous_first)


def test_ambiguous_quantization_fails_one_seed_only(tmp_path, ambiguous_first):
    reports = run_scenario(fast_consensus_2x2(seeds=(0, 1)), out_dir=str(tmp_path))
    assert [r.converged for r in reports] == [True, True]
    assert reports[0].pattern is None
    assert reports[1].pattern.pattern_class == PatternClass.CONSENSUS
    summary = json.loads((tmp_path / "mini-consensus-2x2_summary.json").read_text())
    assert summary["class_counts"] == {"Ambiguous": 1, "Consensus": 1}


def test_sweep_counts_ambiguous_seed_as_converged_without_class(ambiguous_first):
    sc = fast_consensus_2x2(seeds=(0, 1))
    [row] = sweep_lambda(sc, [sc.lambda_value()])
    assert row["frac_converged"] == 1.0
    assert row["frac_Consensus"] == 0.5
    assert sum(row[f"frac_{c.value}"] for c in PatternClass) == 0.5


def test_trajectory_csv_written(tmp_path):
    sc = fast_consensus_2x2(seeds=(0,))
    run_scenario(sc, out_dir=str(tmp_path))
    lines = (tmp_path / "mini-consensus-2x2_seed0.csv").read_text().splitlines()
    assert lines[0] == "t,z_1_1,z_1_2,z_2_1,z_2_2"
    assert len(lines) > 10


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def test_sweep_below_threshold_goes_to_zero():
    sc = fast_consensus_2x2(seeds=(0, 1, 2))
    rows = sweep_lambda(sc, [0.5])
    assert rows[0]["frac_converged"] == 1.0
    assert rows[0]["frac_zero"] == 1.0
    assert rows[0]["mean_amplitude"] <= 1e-7


@pytest.mark.filterwarnings("error")
def test_sweep_survives_diverging_runs(monkeypatch):
    # starts near the float limit (rows alternating +-1e308) overflow in
    # their first step: every run is reported diverged instead of raising
    # out of the sweep
    monkeypatch.setattr(experiments, "random_near_origin",
                        lambda shape, radius, seed: np.array([[1e308] * 6, [-1e308] * 6] * 2))
    sc = get_scenario("consensus-4x6").replace(seeds=(0, 1))
    rows = sweep_lambda(sc, [0.5, 1.5])
    assert [row["lambda"] for row in rows] == [0.5, 1.5]
    assert all(row["frac_converged"] == 0 for row in rows)
    assert all(row["frac_zero"] == 0 for row in rows)


def test_sweep_detects_threshold_crossing(tmp_path):
    sc = fast_consensus_2x2(seeds=(0, 1))
    lambdas = [0.8, 0.95, 1.05, 1.2]
    out = tmp_path / "sweep.csv"
    rows = sweep_lambda(sc, lambdas, out_csv=str(out))
    amps = [r["mean_amplitude"] for r in rows]
    zeros = [r["frac_zero"] for r in rows]
    assert zeros[0] == 1.0 and zeros[1] == 1.0
    assert zeros[2] == 0.0 and zeros[3] == 0.0
    assert amps[2] > 100 * max(amps[0], amps[1])
    # the observed transition brackets the analytic threshold (lambda = 1)
    first_nonzero = next(lam for lam, z in zip(lambdas, zeros) if z == 0.0)
    last_zero = max(lam for lam, z in zip(lambdas, zeros) if z == 1.0)
    assert last_zero < 1.0 < first_nonzero
    header = out.read_text().splitlines()[0].split(",")
    assert "frac_Consensus" in header and "mean_amplitude" in header


def test_sweep_rejects_empty_lambda_list():
    with pytest.raises(ValueError):
        sweep_lambda(fast_consensus_2x2(), [])


# ---------------------------------------------------------------------------
# heatmap
# ---------------------------------------------------------------------------

def test_heatmap_svg_structure(tmp_path):
    Z = np.array([[1.0, -1.0, 0.0], [0.5, -0.5, 0.25]])
    path = tmp_path / "heat.svg"
    write_heatmap_svg(Z, str(path), title="demo")
    text = path.read_text()
    # one rect per cell plus the background
    assert text.count("<rect") == 1 + Z.size
    assert "agent 1" in text and "opt 3" in text
    assert text.startswith("<svg")
    # extreme negative is redder than extreme positive
    assert "#b2182b" in text and "#2166ac" in text


# ---------------------------------------------------------------------------
# command line
# ---------------------------------------------------------------------------

def write_mini_config(path, seeds=(0,)):
    cfg = {
        "name": "cli-mini",
        "shape": [2, 2],
        "coefficients": {"c_d": -1.0, "c_c": 1.0, "c_dl": -1.0, "c_s": -1.0},
        "sigmoids": [0.5, 0.3],
        "epsilon": 0.05,
        "seeds": list(seeds),
    }
    path.write_text(json.dumps(cfg))
    return path


def test_cli_simulate_with_config(tmp_path, capsys):
    cfg = write_mini_config(tmp_path / "cfg.json")
    out = tmp_path / "out"
    rv = cli_main(["simulate", "--config", str(cfg), "--out-dir", str(out)])
    assert rv == 0
    assert (out / "cli-mini_seed0.json").exists()
    assert (out / "cli-mini_seed0.svg").exists()
    captured = capsys.readouterr().out
    assert "converged" in captured


def test_cli_simulate_svg_title_is_escaped(tmp_path):
    cfg = write_mini_config(tmp_path / "cfg.json")
    cfg.write_text(json.dumps({**json.loads(cfg.read_text()), "name": "a&b <1>"}))
    out = tmp_path / "out"
    assert cli_main(["simulate", "--config", str(cfg), "--out-dir", str(out)]) == 0
    root = ElementTree.parse(out / "a&b <1>_seed0.svg").getroot()
    titles = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert titles[0] == "a&b <1> seed 0"


def test_cli_simulate_flag_overrides(tmp_path, capsys):
    cfg = write_mini_config(tmp_path / "cfg.json")
    rv = cli_main(["simulate", "--config", str(cfg), "--seeds", "1,2",
                   "--epsilon", "0.06"])
    assert rv == 0
    out = capsys.readouterr().out
    assert "lambda=1.06" in out
    assert "seed   1" in out and "seed   2" in out


def test_cli_simulate_over_the_cell_guard_skips_the_catalog(tmp_path, capsys):
    # 7x7 has no axial catalog (49 > MAX_AXIAL_CELLS cells): its seeds are
    # integrated and printed without a match instead of failing the command
    cfg = json.loads(write_mini_config(tmp_path / "cfg.json").read_text())
    big = tmp_path / "big.json"
    big.write_text(json.dumps({**cfg, "shape": [7, 7], "integrator": {"t_max": 5}}))
    assert cli_main(["simulate", "--config", str(big)]) == 0
    out = capsys.readouterr().out
    assert "seed   0" in out and "no axial match" in out


def test_cli_simulate_prints_unconverged_outcome(tmp_path, capsys):
    cfg = write_mini_config(tmp_path / "cfg.json", seeds=(0, 1))
    short = tmp_path / "short.json"
    short.write_text(json.dumps({**json.loads(cfg.read_text()),
                                 "integrator": {"t_max": 1.0}}))
    assert cli_main(["simulate", "--config", str(short)]) == 0
    out = capsys.readouterr().out
    assert "0/2 converged" in out
    assert out.count("class=Unconverged") == 2


def test_benchmark_patch_targets_resolve(monkeypatch):
    # the benchmark reads these names at run time; a missing one fails
    # every benchmark call, so pin them here
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    workloads = importlib.import_module("workloads")
    targets = workloads.patch_targets()
    assert targets
    for owner, attr, span, _ in targets:
        assert callable(getattr(owner, attr)), span
    workloads.clear_catalog_caches()
    icfg = workloads.SweepConsensus.scenario.integrator_config()
    assert icfg.equilibrium_tol > 0 and icfg.step > 0


def test_import_makes_no_linear_algebra_call():
    # the built-in scenarios are made at import; their gains and steps are
    # derived when a run asks for them, never while they are constructed
    code = ("import numpy as np\n"
            "def banned(*args, **kw):\n"
            "    raise AssertionError('linear algebra at import')\n"
            "np.linalg.solve = np.linalg.eigvals = np.linalg.inv = banned\n"
            "import indecision\n")
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_runs_import_neither_numpy_random_nor_html(tmp_path):
    # the seeded starts are drawn in pure Python and the SVG title escaped
    # by hand: neither module is worth its import time and memory
    cfg = write_mini_config(tmp_path / "cfg.json", seeds=(0, 1))
    code = ("import sys\n"
            "from indecision import cli, experiments, get_scenario\n"
            f"assert cli.main(['simulate', '--config', {str(cfg)!r}, "
            f"'--out-dir', {str(tmp_path / 'out')!r}]) == 0\n"
            "sc = get_scenario('consensus-4x6').replace(seeds=(0, 1), t_max=5.0)\n"
            "assert len(experiments.sweep_lambda(sc, [0.9, 1.1])) == 2\n"
            "print(sorted({'numpy.random', 'html'} & set(sys.modules)))\n")
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "cli-mini_seed1.svg").exists()


def test_cli_rejects_empty_seed_range(monkeypatch):
    def no_integration(*args):
        raise AssertionError("integrated an invalid scenario")
    for name in ("integrate", "integrate_batch"):
        monkeypatch.setattr(experiments, name, no_integration)
    with pytest.raises(SystemExit) as exc:
        cli_main(["simulate", "--scenario", "consensus-4x6", "--seeds", "5..3"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["catalog", "7", "7"],
    ["catalog", "1", "5"],
    ["simulate", "--scenario", "consensus-4x6", "--seeds", "0..x"],
    ["simulate", "--config", "no_coefficients.json"],
    ["sweep", "--config", "unknown_key.json", "--lambda-list", "1.0"],
    ["sweep", "--scenario", "consensus-4x6", "--lambda-list", ","],
    ["simulate", "--config", "seeds_5.json"],
    ["simulate", "--config", "integrator_3.json"],
    ["simulate", "--config", "shape_4.json"],
    ["simulate", "--config", "seeds_half.json"],
    ["simulate", "--config", "list.json"],
    ["simulate", "--config", "missing.json"],
    ["classify", "matrix.csv", "--tol", "0"],
    ["classify", "missing.csv"],
    ["synthesize", "unbalanced.txt"],
    ["classify", "nan.csv"],
    ["classify", "inf_trajectory.csv"],
    ["simulate", "--config", "t_max_true.json"],
    ["simulate", "--config", "t_max_short.json"],
    ["sweep", "--config", "t_max_short.json", "--lambda-list", "0.5,1.5"],
    ["simulate", "--config", "t_max_inf.json"],
    ["classify", "one_row.csv"],
    ["classify", "one_column.csv"],
    ["classify", "empty.csv"],
    ["simulate", "--config", "shape_float.json"],
    ["simulate", "--config", "shape_whole_floats.json"],
    ["simulate", "--config", "seeds_negative.json"],
    ["simulate", "--scenario", "consensus-4x6", "--seeds=-1"],
    ["simulate", "--config", "name_path.json", "--out-dir", "out"],
    ["classify", "matrix.csv", "--tol", "nan"],
    ["classify", "matrix.csv", "--tol", "inf"],
    ["simulate", "--config", "radius_nan.json"],
    ["simulate", "--config", "sigmoids_saturated.json"],
    ["simulate", "--config", "radius_huge.json"],
    ["simulate", "--config", "sigmoids_slow.json"],
    ["sweep", "--config", "sigmoids_slow.json", "--lambda-list", "0.9"],
])
def test_cli_invalid_input_is_usage_error(tmp_path, monkeypatch, capsys, argv):
    def no_integration(*args):
        raise AssertionError("integrated invalid input")
    for name in ("integrate", "integrate_batch"):
        monkeypatch.setattr(experiments, name, no_integration)
    monkeypatch.chdir(tmp_path)
    (tmp_path / "no_coefficients.json").write_text('{"shape": [2, 2]}')
    mini = json.loads(write_mini_config(tmp_path / "mini.json").read_text())
    (tmp_path / "unknown_key.json").write_text(json.dumps({**mini, "epsilo": 0.5}))
    for name, key, value in [("seeds_5", "seeds", 5), ("integrator_3", "integrator", 3),
                             ("shape_4", "shape", [4]), ("seeds_half", "seeds", [0.5]),
                             ("t_max_true", "integrator", {"t_max": True}),
                             ("t_max_short", "integrator", {"t_max": 0.01}),
                             ("t_max_inf", "integrator", {"t_max": float("inf")}),
                             ("shape_float", "shape", [4, 6.5]),
                             ("shape_whole_floats", "shape", [4.0, 6.0]),
                             ("seeds_negative", "seeds", [-1]),
                             ("radius_nan", "radius", float("nan")),
                             ("sigmoids_saturated", "sigmoids", [20.0, 0.3]),
                             ("sigmoids_slow", "sigmoids", [8.0, 0.3]),
                             ("radius_huge", "radius", 1e308),
                             ("name_path", "name", "runs/a")]:
        (tmp_path / f"{name}.json").write_text(json.dumps({**mini, key: value}))
    (tmp_path / "list.json").write_text("[1]")
    (tmp_path / "matrix.csv").write_text("1.0,2.0\n2.0,1.0\n")
    (tmp_path / "unbalanced.txt").write_text("0 1\n0 0\n")
    (tmp_path / "nan.csv").write_text("1.0,nan\n2.0,1.0\n")
    (tmp_path / "one_row.csv").write_text("1,2,3\n")
    (tmp_path / "one_column.csv").write_text("1\n2\n3\n")
    (tmp_path / "empty.csv").write_text("")
    (tmp_path / "inf_trajectory.csv").write_text(
        "t,z_1_1,z_1_2,z_2_1,z_2_2\n0,1,2,2,1\n0.05,inf,-inf,2,1\n")
    with pytest.raises(SystemExit) as exc:
        cli_main(argv)
    assert exc.value.code == 2
    assert "usage:" in capsys.readouterr().err


@pytest.mark.parametrize("text, message", [
    ("1,2\n\n3\n", "line 3 has 1 values, line 1 has 2"),
    ("t,z_1_1,z_1_2,z_2_1,z_2_2\n", "has a header but no samples"),
])
def test_cli_classify_names_what_is_wrong_with_the_file(tmp_path, capsys, text, message):
    path = tmp_path / "bad.csv"
    path.write_text(text)
    with pytest.raises(SystemExit) as exc:
        cli_main(["classify", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "usage:" in err and message in err


def test_cli_sweep(tmp_path, capsys):
    cfg = write_mini_config(tmp_path / "cfg.json", seeds=(0, 1))
    out = tmp_path / "out"
    rv = cli_main(["sweep", "--config", str(cfg), "--out-dir", str(out),
                   "--lambda-list", "0.5,1.1"])
    assert rv == 0
    csv_text = (out / "cli-mini_sweep.csv").read_text()
    assert csv_text.splitlines()[0].startswith("lambda,")
    assert len(csv_text.splitlines()) == 3


def test_cli_sweep_prints_every_nonzero_class(capsys):
    rv = cli_main(["sweep", "--scenario", "consensus-4x6", "--seeds", "0,1",
                   "--lambda-list", "0.9,1.1"])
    assert rv == 0
    below, above = capsys.readouterr().out.splitlines()
    assert "FullySynchronous=1.00" in below and "Consensus" not in below
    assert "Consensus=1.00" in above and "Dissensus" not in above


def test_run_report_counts_accepted_steps(tmp_path):
    # the CSV has a row for the start and one per accepted step, and each
    # step costs at least two field evaluations
    sc = fast_consensus_2x2(seeds=(0,))
    run_scenario(sc, out_dir=str(tmp_path))
    payload = json.loads((tmp_path / "mini-consensus-2x2_seed0.json").read_text())
    rows = (tmp_path / "mini-consensus-2x2_seed0.csv").read_text().splitlines()[1:]
    assert payload["n_steps"] > 0
    assert payload["n_steps"] == len(rows) - 1
    assert payload["n_evals"] >= 1 + 2 * payload["n_steps"]


def test_cli_catalog(tmp_path, capsys):
    rv = cli_main(["catalog", "2", "4", "--out-dir", str(tmp_path)])
    assert rv == 0
    out = capsys.readouterr().out
    assert "total 3" in out
    assert "Exotic" not in out.replace("by verdict", "")  # all orbital on 2x4
    items = json.loads((tmp_path / "axial_catalog_2x4.json").read_text())
    assert len(items) == 3


def test_cli_catalog_4x6_has_exotic(capsys):
    rv = cli_main(["catalog", "4", "6"])
    assert rv == 0
    out = capsys.readouterr().out
    assert "Exotic" in out
    assert "total 14" in out


def test_cli_catalog_10x2_completes(capsys):
    # 10 rows: no search may visit all 10! row permutations
    rv = cli_main(["catalog", "10", "2"])
    assert rv == 0
    assert "total 9" in capsys.readouterr().out


def test_cli_classify(tmp_path, capsys):
    Z = np.tile(np.array([2.0, 2.0, -1.0]), (3, 1))
    path = tmp_path / "mat.csv"
    path.write_text("\n".join(",".join(f"{v:.17g}" for v in row) for row in Z) + "\n")
    rv = cli_main(["classify", str(path), "--tol", "1e-6"])
    assert rv == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "Consensus"


def test_cli_classify_default_tol_is_the_scenario_default(tmp_path, capsys):
    sc = fast_consensus_2x2(seeds=(0,))
    [report] = run_scenario(sc, out_dir=str(tmp_path))
    assert cli_main(["classify", str(tmp_path / "mini-consensus-2x2_seed0.csv")]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["quantization_tol"] == sc.quantize_tol == 1e-4
    assert payload["class"] == report.outcome


def test_cli_classify_trajectory_file(tmp_path, capsys):
    sc = fast_consensus_2x2(seeds=(0,))
    run_scenario(sc, out_dir=str(tmp_path))
    rv = cli_main(["classify", str(tmp_path / "mini-consensus-2x2_seed0.csv"),
                   "--tol", "1e-4"])
    assert rv == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["class"] == "Consensus"


def test_cli_synthesize(tmp_path, capsys):
    path = tmp_path / "coloring.txt"
    path.write_text("0 1\n1 0\n")
    rv = cli_main(["synthesize", str(path)])
    assert rv == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["stable"] is True
    assert payload["exact_roots"] is True
    assert payload["max_eigenvalue_deviation"] <= 1e-8
