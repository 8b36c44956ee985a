"""The quick demos run end to end as scripts, with src on the import path."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name, cwd, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    return subprocess.run([sys.executable, str(ROOT / "demos" / name), *args], cwd=cwd,
                          env=env, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("name", [
    "01_linearization_and_thresholds.py",
    "02_consensus_and_deadlock.py",
    "03_dissensus_patterns.py",
    "04_axial_catalog.py",
    "05_exotic_4x6.py",
    "06_stable_synthesis.py",
    "07_lambda_sweep.py",
])
def test_demo_runs(tmp_path, name):
    # demos that write files put them under the working directory
    proc = run_demo(name, tmp_path)
    assert proc.returncode == 0, proc.stderr
    if name.startswith("05"):
        assert "verdict: Exotic" in proc.stdout
    if name.startswith("07"):
        assert "lies inside" in proc.stdout
    if name.startswith(("02", "03", "07")):
        assert any((tmp_path / "demos_out").iterdir())


def test_axial_census_demo(tmp_path):
    # every shape with m, n >= 2 and at most 24 cells, one table row each
    proc = run_demo("08_axial_census.py", tmp_path, "24")
    assert proc.returncode == 0, proc.stderr
    rows = [line for line in proc.stdout.splitlines() if line.startswith("| ") and line[2:3].isdigit()]
    assert len(rows) == 37
    assert any(row.startswith("| 4x6 | 24 | 14 | 1 |") for row in rows)
    assert any(row.startswith("| 6x4 | 24 | 14 | 1 |") for row in rows)
