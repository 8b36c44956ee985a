"""The three workloads: what each runs, its set-up, and its correctness gate.

Each workload is a closed loop with one caller: the next call starts when the
previous one has returned.  A call is one operation batch: `attempted` counts
its seed integrations (or catalog shapes), and the gate counts each one whose
output fails an exact check as failed instead of aborting the run.

Calls of one run get distinct inputs derived from the workload seed: call k
of a run with seed n uses input index j = n * MAX_CALLS + k.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil
import sys
import traceback

from indecision import cli, colorings, experiments
from indecision.colorings import (canonical_form, classify_orbital_exotic,
                                  enumerate_axial, is_axial_Vd, is_balanced)
from indecision.experiments import ZERO_AMPLITUDE, catalog_rows, get_scenario
from indecision.model import NetworkShape
from indecision.patterns import (AmbiguousQuantizationError, PatternClass,
                                 classify_state, quantize_to_coloring)

MAX_CALLS = 16

# Known answers for scenario seeds 0..39 of dissensus-exotic-4x6, measured
# at the commit that introduced this benchmark: seed -> (axial catalog
# index, verdict) of its final state.  Seeds 4, 20, 30, 33, 34 and 35 are
# left out: at this commit their runs reach t_max before the residual falls
# below equilibrium_tol (1e-9), so every call on them would fail the gate.
# The 34 seeds left form 17 pairs; 17 is prime to MAX_CALLS, so seeds
# 0..16 of the benchmark start on 17 different pairs.
EXOTIC_FINALS = {
    0: (8, "Exotic"), 1: (8, "Exotic"), 2: (9, "Orbital"), 3: (8, "Exotic"),
    5: (9, "Orbital"), 6: (9, "Orbital"), 7: (9, "Orbital"), 8: (9, "Orbital"),
    9: (9, "Orbital"), 10: (8, "Exotic"), 11: (8, "Exotic"), 12: (8, "Exotic"),
    13: (9, "Orbital"), 14: (8, "Exotic"), 15: (8, "Exotic"),
    16: (9, "Orbital"), 17: (9, "Orbital"), 18: (9, "Orbital"),
    19: (8, "Exotic"), 21: (8, "Exotic"), 22: (9, "Orbital"),
    23: (8, "Exotic"), 24: (8, "Exotic"), 25: (9, "Orbital"),
    26: (8, "Exotic"), 27: (8, "Exotic"), 28: (8, "Exotic"),
    29: (7, "Orbital"), 31: (9, "Orbital"), 32: (9, "Orbital"),
    36: (8, "Exotic"), 37: (9, "Orbital"), 38: (8, "Exotic"),
    39: (8, "Exotic"),
}
_POOL = sorted(EXOTIC_FINALS)
EXOTIC_PAIRS = [tuple(_POOL[i:i + 2]) for i in range(0, len(_POOL), 2)]

SWEEP_LAMBDAS = (0.5, 0.9, 0.97, 1.03, 1.1, 1.5)
SWEEP_SEEDS_PER_CALL = 4

# Axial catalog census per shape: (catalog size, number of Exotic entries).
CATALOG_CENSUS = {"4x6": (14, 1), "5x5": (7, 2), "5x6": (14, 3)}


def shape_name(shape: NetworkShape) -> str:
    return f"{shape.m}x{shape.n}"


def clear_catalog_caches():
    for cached in (enumerate_axial, canonical_form, classify_orbital_exotic):
        cached.cache_clear()


def patch_targets():
    """Public calls the tracer wraps, as (owner, attribute, span, keep)."""
    return [
        (cli, "run_scenario", "experiments.run_scenario", True),
        (experiments, "integrate", "integrate.integrate", True),
        (experiments, "quantize_to_coloring", "patterns.quantize_to_coloring", False),
        (experiments, "classify_state", "patterns.classify_state", False),
        (experiments, "enumerate_axial", "colorings.enumerate_axial", False),
        (experiments, "is_axial_Vd", "colorings.is_axial_Vd", False),
        (experiments, "classify_orbital_exotic", "colorings.classify_orbital_exotic", False),
        (experiments, "trajectory_to_csv", "experiments.trajectory_to_csv", False),
        (experiments, "write_heatmap_svg", "experiments.write_heatmap_svg", False),
        (colorings, "canonical_form", "colorings.canonical_form", False),
        (colorings, "isotropy_subgroup", "colorings.isotropy_subgroup", False),
        (colorings.AxialCatalog, "match", "colorings.match", False),
    ]


def checked_final(final, converged, residual, tol, quantize_tol):
    """The coloring of a final state, or None when the run did not converge
    within tol, the final quantizes ambiguously, or it is not balanced."""
    if not converged or not residual <= tol:
        return None
    try:
        coloring = quantize_to_coloring(final, quantize_tol)
    except AmbiguousQuantizationError:
        return None
    return coloring if is_balanced(coloring) else None


class Workload:
    name = ""

    def __init__(self, seed: int, work_dir: str, tracer):
        self.seed = seed
        self.work_dir = work_dir
        self.tracer = tracer
        self.bytes_written = 0

    def index(self, k: int) -> int:
        return self.seed * MAX_CALLS + k

    def prepare(self):
        """Set-up a user pays before the first call."""

    def reset(self):
        """Cache state every call starts from."""

    def call(self, k: int):
        raise NotImplementedError

    def check(self, k: int, out) -> tuple[int, int]:
        """(attempted, failed) operations of call k."""
        raise NotImplementedError

    def census(self) -> dict[str, tuple[int, int]]:
        """Catalog size and exotic count per shape this workload built."""
        return {}


def guarded(fn, *args):
    """Run fn; an exception fails the call's operations, not the run."""
    try:
        return fn(*args)
    except Exception as exc:  # the gate must see every call's outcome
        traceback.print_exc(file=sys.stderr)
        return exc


class SimulateExotic(Workload):
    """`indecision simulate --scenario dissensus-exotic-4x6 --seeds a,b
    --out-dir D` through cli.main, with the 4x6 axial catalog built in
    set-up, as every CLI call builds it."""

    name = "simulate-exotic"
    scenario = get_scenario("dissensus-exotic-4x6")

    def seeds(self, k):
        return EXOTIC_PAIRS[self.index(k) % len(EXOTIC_PAIRS)]

    def prepare(self):
        clear_catalog_caches()
        self.tracer.tag = shape_name(self.scenario.shape)
        self.catalog = experiments.enumerate_axial(self.scenario.shape)

    def out_dir(self, k):
        return os.path.join(self.work_dir, f"call{k}")

    def call(self, k):
        argv = ["simulate", "--scenario", self.scenario.name,
                "--seeds", ",".join(map(str, self.seeds(k))),
                "--out-dir", self.out_dir(k)]
        with contextlib.redirect_stdout(io.StringIO()):
            return guarded(self.tracer.wrap("cli.main", cli.main), argv)

    def check(self, k, status):
        seeds = self.seeds(k)
        kept = self.tracer.kept.get("experiments.run_scenario", [])
        reports = kept[-1][1] if status == 0 and kept else []
        if [r.seed for r in reports] != list(seeds):
            reports = []
        sc = self.scenario
        tol = sc.integrator_config().equilibrium_tol
        out_dir = self.out_dir(k)
        failed = len(seeds) - len(reports)
        for r in reports:
            ok = checked_final(r.final, r.converged, r.residual, tol,
                               sc.quantize_tol) is not None
            ok = ok and r.pattern is not None \
                and r.pattern.pattern_class is PatternClass.DISSENSUS
            ok = ok and r.axial_case == "A" \
                and (r.axial_index, r.axial_verdict) == EXOTIC_FINALS[r.seed]
            stem = os.path.join(out_dir, f"{sc.name}_seed{r.seed}")
            ok = ok and all(os.path.isfile(stem + ext) and os.path.getsize(stem + ext)
                            for ext in (".json", ".csv", ".svg"))
            failed += not ok
        self.bytes_written = sum(
            os.path.getsize(os.path.join(out_dir, f))
            for f in os.listdir(out_dir)) if os.path.isdir(out_dir) else 0
        shutil.rmtree(out_dir, ignore_errors=True)
        return len(seeds), failed

    def census(self):
        verdicts = [classify_orbital_exotic(e.coloring) for e in self.catalog]
        return {shape_name(self.scenario.shape):
                (len(self.catalog), verdicts.count("Exotic"))}


class SweepConsensus(Workload):
    """sweep_lambda on consensus-4x6 over four seeds at six lambdas, three
    below the consensus threshold (lambda = 1) and three above it."""

    name = "sweep-consensus"
    scenario = get_scenario("consensus-4x6")

    def seeds(self, k):
        first = SWEEP_SEEDS_PER_CALL * self.index(k)
        return tuple(range(first, first + SWEEP_SEEDS_PER_CALL))

    def call(self, k):
        sc = self.scenario.replace(seeds=self.seeds(k))
        sweep = self.tracer.wrap("experiments.sweep_lambda",
                                 experiments.sweep_lambda)
        return guarded(sweep, sc, SWEEP_LAMBDAS)

    def check(self, k, rows):
        seeds = self.seeds(k)
        sc = self.scenario.replace(seeds=seeds)
        threshold = sc.first_threshold().lam
        tol = sc.integrator_config().equilibrium_tol
        runs = self.tracer.kept.get("integrate.integrate", [])
        attempted = len(SWEEP_LAMBDAS) * len(seeds)
        if isinstance(rows, Exception) or len(runs) != attempted:
            return attempted, attempted
        failed = 0
        for i, lam in enumerate(SWEEP_LAMBDAS):
            row = rows[i]
            below = lam < threshold
            row_ok = row["lambda"] == lam and row["frac_converged"] == 1 \
                and row["frac_zero" if below else "frac_Consensus"] == 1
            for (args, (_, res)) in runs[i * len(seeds):(i + 1) * len(seeds)]:
                coloring = checked_final(res.final, res.converged, res.residual,
                                         tol, sc.quantize_tol)
                ok = row_ok and coloring is not None and args[1].lam == lam
                if ok and below:
                    ok = float(abs(res.final).max()) <= ZERO_AMPLITUDE
                elif ok:
                    cls = classify_state(coloring, res.final).pattern_class
                    ok = cls is PatternClass.CONSENSUS
                failed += not ok
        return attempted, failed


class CatalogExact(Workload):
    """catalog_rows (the `indecision catalog` path) on 4x6, 5x5 and 5x6 from
    cold caches; the seed does not change the input."""

    name = "catalog-exact"
    shapes = tuple(CATALOG_CENSUS)
    _census: dict[str, tuple[int, int]] = {}  # replaced by every check

    def reset(self):
        clear_catalog_caches()

    def call(self, k):
        rows = self.tracer.wrap("experiments.catalog_rows", catalog_rows)
        out = {}
        for name in self.shapes:
            self.tracer.tag = name
            out[name] = guarded(rows, NetworkShape(*map(int, name.split("x"))))
        self.tracer.tag = None
        return out

    def check(self, k, out):
        failed = 0
        self._census = {}
        for name, result in out.items():
            if isinstance(result, Exception):
                failed += 1
                continue
            cat, rows = result
            exotic = sum(row["verdict"] == "Exotic" for row in rows)
            self._census[name] = (len(cat), exotic)
            ok = (len(rows), exotic) == CATALOG_CENSUS[name] \
                and all(is_axial_Vd(e.coloring) for e in cat)
            failed += not ok
        return len(out), failed

    def census(self):
        return self._census


WORKLOADS = {w.name: w for w in (SimulateExotic, SweepConsensus, CatalogExact)}
