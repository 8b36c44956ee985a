"""The round harness of the two-tree benchmark tools (tools/bench_l4.py),
driven without starting a subprocess."""

import importlib.util
import json
import os
import statistics
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

HARNESS = Path(__file__).parents[1] / "tools" / "bench_l4.py"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_l4", HARNESS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    monkeypatch.setattr(module, "git_sha", lambda src: f"sha of {src}")
    return module


def child_output(**figures):
    return {"figures": figures, "python": "3.x", "numpy": "2.x"}


def test_run_rounds_alternates_the_trees_and_puts_each_on_pythonpath(bench, monkeypatch):
    calls = []

    def run(cmd, env, **kwargs):
        calls.append((cmd, env["PYTHONPATH"]))
        return SimpleNamespace(stdout=json.dumps(child_output(call=len(calls))))
    monkeypatch.setattr(bench.subprocess, "run", run)
    trees = {"parent": "old/src", "change": "new/src"}
    runs = bench.run_rounds("tool.py", trees, 3, "stage", "--flag")
    assert [cmd for cmd, _ in calls] == [[sys.executable, "tool.py", "--child", "stage",
                                          "--flag"]] * 6
    order = [path for _, path in calls]
    old, new = os.path.abspath("old/src"), os.path.abspath("new/src")
    assert order == [old, new, new, old, old, new]
    assert [run["figures"]["call"] for run in runs["parent"]] == [1, 4, 5]
    assert [run["figures"]["call"] for run in runs["change"]] == [2, 3, 6]


def summary(bench, tmp_path, runs):
    out = tmp_path / "summary.json"
    doc = "Title.\n\nThe method.\n\nUsage:\n    tool"
    bench.write_summary(str(out), doc, {label: f"{label}/src" for label in runs}, runs,
                        rounds=len(runs["a"]), calls=3)
    return json.loads(out.read_text())


def test_write_summary_gives_the_quantiles_of_each_figure(bench, tmp_path):
    values = [3.0, 1.0, 4.0, 1.5, 5.0, 9.0, 2.0]
    result = summary(bench, tmp_path, {"a": [child_output(t=v) for v in values]})
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert result["trees"]["a"] == {
        "git_sha": "sha of a/src",
        "figures": {"t": {"median": round(median, 4), "q1": round(q1, 4),
                          "q3": round(q3, 4)}}}
    assert result["method"] == "The method."
    assert (result["rounds"], result["calls"]) == (7, 3)
    assert result["host"]["python"] == "3.x"


def pair(bench, tmp_path, base, other):
    runs = {"a": [child_output(t=v) for v in base], "b": [child_output(t=v) for v in other]}
    result = summary(bench, tmp_path, runs)
    assert set(result["trees"]["a"]["figures"]["t"]) == {"median", "q1", "q3"}
    return result["trees"]["b"]["figures"]["t"]


def test_write_summary_pairs_a_clear_win(bench, tmp_path):
    base = [10.0, 10.4, 9.8, 10.1, 10.6, 9.9, 10.2, 10.3, 10.0, 10.5]
    fields = pair(bench, tmp_path, base, [v * 0.8 for v in base])
    assert fields["ratio"] == pytest.approx(0.8, abs=1e-4)
    assert fields["lower_rounds"] == 10
    assert fields["beyond_iqr"] is True


def test_write_summary_pairs_an_a_a_tie(bench, tmp_path):
    base = [10.0, 10.4, 9.8, 10.1, 10.6, 9.9, 10.2, 10.3, 10.0, 10.5]
    fields = pair(bench, tmp_path, base, base)
    assert (fields["ratio"], fields["lower_rounds"], fields["beyond_iqr"]) == (1.0, 0, False)
    # the same values in another round order: half the rounds read lower,
    # and the medians are equal
    fields = pair(bench, tmp_path, base, base[5:] + base[:5])
    assert (fields["ratio"], fields["beyond_iqr"]) == (1.0, False)
    assert fields["lower_rounds"] == sum(b < a for a, b in zip(base, base[5:] + base[:5]))
    # a count that repeats exactly has no spread, and no gap either
    fields = pair(bench, tmp_path, [90] * 9, [90] * 9)
    assert (fields["ratio"], fields["lower_rounds"], fields["beyond_iqr"]) == (1.0, 0, False)


def test_write_summary_pairs_a_one_round_run(bench, tmp_path):
    fields = pair(bench, tmp_path, [4.0], [3.0])
    assert fields == {"median": 3.0, "q1": 3.0, "q3": 3.0, "ratio": 0.75, "lower_rounds": 1,
                      "beyond_iqr": True}


def test_main_merges_the_stage_figures_round_by_round(bench, monkeypatch, tmp_path):
    calls, written = [], {}

    def run_rounds(script, trees, rounds, *child_args):
        calls.append((script, trees, rounds, child_args))
        stage = child_args[0]
        return {label: [child_output(**{f"{stage}_s": (k, label, r)}) for r in range(rounds)]
                for k, label in enumerate(trees)}

    def write_summary(out, doc, trees, runs, **fields):
        written.update(out=out, doc=doc, trees=trees, runs=runs, fields=fields)
    monkeypatch.setattr(bench, "run_rounds", run_rounds)
    monkeypatch.setattr(bench, "write_summary", write_summary)
    monkeypatch.setattr(sys, "argv", ["tool", "p=old/src", "c=new/src", "--rounds", "3",
                                      "--out", "x.json"])
    bench.main("tool.py", "Title.\n\nMethod.", 10, [("import",), ("starts",)], calls=5)
    trees = {"p": "old/src", "c": "new/src"}
    assert calls == [("tool.py", trees, 3, ("import",)), ("tool.py", trees, 3, ("starts",))]
    assert (written["out"], written["trees"]) == ("x.json", trees)
    assert written["fields"] == {"rounds": 3, "calls": 5}
    for k, label in enumerate(trees):
        assert written["runs"][label] == [
            {"figures": {"import_s": (k, label, r), "starts_s": (k, label, r)},
             "python": "3.x", "numpy": "2.x"} for r in range(3)]


def test_main_runs_one_empty_stage_for_the_default_rounds(bench, monkeypatch):
    calls, written = [], {}

    def run_rounds(script, trees, rounds, *child_args):
        calls.append(child_args)
        return {label: [child_output(t=r) for r in range(rounds)] for label in trees}
    monkeypatch.setattr(bench, "run_rounds", run_rounds)
    monkeypatch.setattr(bench, "write_summary",
                        lambda out, doc, trees, runs, **fields: written.update(runs=runs,
                                                                                out=out))
    monkeypatch.setattr(sys, "argv", ["tool", "only=src"])
    bench.main("tool.py", "Title.\n\nMethod.", 7)
    assert calls == [()]
    assert written["out"] is None
    assert [run["figures"] for run in written["runs"]["only"]] == [{"t": r} for r in range(7)]
