"""Packaged experiments: named scenarios, seeded batch runs, lambda sweeps.

A scenario fixes the network shape, the four subspace growth coefficients
(the gains are recovered by inverting the 4x4 interaction matrix), the two
saturation offsets, and an offset epsilon above the first bifurcation
threshold.  Each seeded run integrates from a random state near the origin,
classifies the converged pattern, and looks it up in the axial catalog of
the shape when the shape is small enough to enumerate (m*n <=
MAX_AXIAL_CELLS).

Built-in scenarios (all on the 4 x 6 network, epsilon = 1e-2):

  consensus-4x6          c = (-1,  1, -1, -1), offsets (0.5, 0.3)
  deadlock-4x6           c = (-1, -1,  1, -1), offsets (0.5, 0.3)
  dissensus-orbital-4x6  c = ( 1, -1, -.5, -.5), offsets (0.5, 0.3)
  dissensus-exotic-4x6   c = ( 1, -1, -1, -1), offsets (-0.1, -0.3)

Outputs are deterministic per (scenario, seed): JSON reports, CSV time
series and SVG heatmaps are byte-identical across repeated runs on one
platform.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from collections import Counter
from dataclasses import dataclass
from numbers import Integral, Real

import numpy as np

from .colorings import (AxialCatalog, CatalogTooLargeError, classify_orbital_exotic,
                        enumerate_axial, is_axial_Vd)
from .integrate import (EquilibriumResult, IntegratorConfig, integrate, integrate_batch,
                        random_near_origin, spectral_bound, trajectory_to_csv)
from .model import (CriticalCoefficients, GainParams, ModelConfig, NetworkShape,
                    SigmoidParams, bifurcation_threshold, gains_from_coefficients)
from .patterns import (AmbiguousQuantizationError, PatternClass, PatternReport,
                       classify_state, quantize_to_coloring)

__all__ = [
    "Scenario",
    "RunReport",
    "BUILTIN_SCENARIOS",
    "get_scenario",
    "run_scenario",
    "sweep_lambda",
    "catalog_rows",
    "write_heatmap_svg",
]

DEFAULT_SEEDS = tuple(range(20))
DEFAULT_QUANTIZE_TOL = 1e-4  # also the default of `indecision classify --tol`
ZERO_AMPLITUDE = 1e-6  # below this a final state counts as "converged to 0"
MAX_STEPS = 2_600_000  # most steps of 1/rho a run's t_max may span; the built-ins span < 10,000
_CONFIG_KEYS = ("name", "shape", "coefficients", "sigmoids", "epsilon", "seeds",
                "radius", "quantize_tol", "integrator")
_INTEGRATOR_KEYS = ("t_max",)
_NUMERIC_FIELDS = ("epsilon", "radius", "quantize_tol")


@dataclass(frozen=True)
class Scenario:
    """Reproducible simulation setup near one synchrony-breaking threshold."""

    name: str
    shape: NetworkShape
    coefficients: CriticalCoefficients
    sigmoids: SigmoidParams
    epsilon: float = 1e-2
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    radius: float = 1e-3
    quantize_tol: float = DEFAULT_QUANTIZE_TOL
    t_max: float | None = None  # None: sized from the growth rate at lambda

    def __post_init__(self):
        # bool is an Integral and a Real to Python, but never a seed or a number here
        if not all(isinstance(s, Integral) and not isinstance(s, bool) for s in self.seeds):
            raise ValueError("seeds must be integers")
        numbers = {k: getattr(self, k) for k in _NUMERIC_FIELDS}
        numbers.update((f"coefficients.{k}", v) for k, v in vars(self.coefficients).items())
        numbers.update((f"sigmoids.{k}", v) for k, v in vars(self.sigmoids).items())
        if self.t_max is not None:
            numbers["t_max"] = self.t_max
        # an infinite t_max is rejected with the step, when the run is set up
        bad = [k for k, v in numbers.items() if not isinstance(v, Real) or isinstance(v, bool)
               or k != "t_max" and not math.isfinite(v)]
        if bad:
            raise ValueError(f"not a finite number: {', '.join(bad)}")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if min(self.seeds) < 0:
            raise ValueError(f"seeds must be >= 0, got {min(self.seeds)}")
        if self.quantize_tol <= 0:
            raise ValueError("quantize_tol must be > 0")
        if not (self.radius > 0 and math.isfinite(2 * self.radius)):
            raise ValueError("radius must be > 0 with 2 * radius finite")
        if self.t_max is not None and not self.t_max > 0:
            raise ValueError("t_max must be > 0")
        if any(sep in str(self.name) for sep in ("/", os.sep, os.altsep) if sep):
            raise ValueError(f"name {self.name!r} contains a path separator")

    @classmethod
    def from_dict(cls, raw: dict, base: "Scenario | None" = None) -> "Scenario":
        """Scenario from a JSON config; keys missing from raw keep base's
        values.  Schema (every key optional, except coefficients when no
        base is given; without a base, name defaults to "custom", shape to
        [4, 6] and sigmoids to [0.5, 0.3]; any other key, top-level or
        under "integrator", raises ValueError naming it):

        {
          "name": "my-scenario",
          "shape": [4, 6],
          "coefficients": {"c_d": 1.0, "c_c": -1.0, "c_dl": -0.5, "c_s": -0.5},
          "sigmoids": [0.5, 0.3],
          "epsilon": 0.01,
          "seeds": [0, 1, 2],
          "radius": 0.001,
          "quantize_tol": 0.0001,
          "integrator": {"t_max": 3000.0}
        }

        Every run stops at the residual IntegratorConfig.equilibrium_tol,
        records every accepted step and takes its first trial step from
        spectral_bound(model config); none of them is a config key.  A JSON
        boolean is not a number: true as a number or seed raises ValueError.
        """
        if not isinstance(raw, dict):
            raise ValueError("config must be a JSON object")
        integ = raw.get("integrator", {})
        if not isinstance(integ, dict):
            raise ValueError("config key integrator must be a JSON object")
        unknown = [k for k in raw if k not in _CONFIG_KEYS] + \
                  [f"integrator.{k}" for k in integ if k not in _INTEGRATOR_KEYS]
        if unknown:
            raise ValueError(f"unknown config keys: {', '.join(unknown)}")
        kw = {k: raw[k] for k in ("name", "epsilon", "radius", "quantize_tol") if k in raw}
        kw.update((k, integ[k]) for k in _INTEGRATOR_KEYS if k in integ)
        parsers = {"shape": lambda v: NetworkShape(*v),
                   "coefficients": lambda v: CriticalCoefficients(**v),
                   "sigmoids": lambda v: SigmoidParams(*v),
                   "seeds": tuple}
        for key, parse in parsers.items():
            if key not in raw:
                continue
            try:
                kw[key] = parse(raw[key])
            except (TypeError, ValueError) as exc:
                raise ValueError(f"config key {key}: {exc}") from None
        if base is not None:
            return dataclasses.replace(base, **kw)
        if "coefficients" not in kw:
            raise ValueError("config needs 'coefficients' when no base scenario is given")
        return cls(**{"name": "custom", "shape": NetworkShape(4, 6),
                      "sigmoids": SigmoidParams(0.5, 0.3), **kw})

    def to_dict(self) -> dict:
        """The JSON config of this scenario, which from_dict reads back to it."""
        integrator = {} if self.t_max is None else {"integrator": {"t_max": self.t_max}}
        return {"name": self.name, "shape": [self.shape.m, self.shape.n],
                "coefficients": vars(self.coefficients).copy(),
                "sigmoids": [self.sigmoids.s1, self.sigmoids.s2], "epsilon": self.epsilon,
                "seeds": list(self.seeds), "radius": self.radius,
                "quantize_tol": self.quantize_tol, **integrator}

    def first_threshold(self):
        infos = [bifurcation_threshold(self.coefficients, w)
                 for w in ("dissensus", "consensus", "deadlock", "sync")
                 if self.coefficients.get(w) != 0.0]
        firsts = [t for t in infos if t.first]
        if not firsts:
            raise ValueError("scenario has no unique first bifurcation")
        return firsts[0]

    def lambda_value(self) -> float:
        return self.first_threshold().lam + self.epsilon

    def gains(self) -> GainParams:
        return gains_from_coefficients(self.coefficients, self.shape)

    def model_config(self, lam: float | None = None) -> ModelConfig:
        return ModelConfig(shape=self.shape, gains=self.gains(),
                           sigmoids=self.sigmoids,
                           lam=self.lambda_value() if lam is None else lam)

    def integrator_config(self, lam: float | None = None) -> IntegratorConfig:
        """Integrator config of a run at lam (default: the scenario's
        lambda): the first trial step is 1 / rho, rho = spectral_bound of
        its model config, a Bauer-Fike bound on the Jacobian's spectral
        radius at every state (2.9-3.2 on the built-ins; 2.1-4.3 at lam =
        0.5-1.5 on consensus-4x6), and t_max the scenario's or, when that
        is None, sized from the linear growth rate |lam c - 1| of the first
        bifurcating subspace (coefficient c).
        Raises ValueError when t_max is infinite or not longer than that
        step, and when t_max rho, the horizon over the fastest time scale,
        exceeds MAX_STEPS: rho grows like 1 / (1 - tanh(s)^2) of the
        sigmoid offsets, and an RKC step of size h takes about sqrt(1.54 h
        rho) field evaluations, so a large offset would make a run that
        never ends."""
        cfg = self.model_config(lam)
        t_max = self.t_max
        if t_max is None:
            # escape from a radius-r neighborhood grows like exp(rate * t);
            # allow ~15 e-foldings plus settling time
            c_first = self.coefficients.get(self.first_threshold().which)
            rate = abs(cfg.lam * c_first - 1.0)
            t_max = 15.0 / max(rate, 1e-3) + 1500.0
        rho = spectral_bound(cfg)
        icfg = IntegratorConfig(step=1.0 / rho, t_max=t_max)
        if t_max * rho > MAX_STEPS:
            raise ValueError(f"t_max {t_max:g} spans {t_max * rho:.3g} steps of 1/rho = "
                             f"{icfg.step:.3g}, over the {MAX_STEPS:,} allowed")
        return icfg

    def replace(self, **kw) -> "Scenario":
        return dataclasses.replace(self, **kw)


BUILTIN_SCENARIOS = {
    "consensus-4x6": Scenario(
        name="consensus-4x6", shape=NetworkShape(4, 6),
        coefficients=CriticalCoefficients(c_d=-1.0, c_c=1.0, c_dl=-1.0, c_s=-1.0),
        sigmoids=SigmoidParams(0.5, 0.3)),
    "deadlock-4x6": Scenario(
        name="deadlock-4x6", shape=NetworkShape(4, 6),
        coefficients=CriticalCoefficients(c_d=-1.0, c_c=-1.0, c_dl=1.0, c_s=-1.0),
        sigmoids=SigmoidParams(0.5, 0.3)),
    "dissensus-orbital-4x6": Scenario(
        name="dissensus-orbital-4x6", shape=NetworkShape(4, 6),
        coefficients=CriticalCoefficients(c_d=1.0, c_c=-1.0, c_dl=-0.5, c_s=-0.5),
        sigmoids=SigmoidParams(0.5, 0.3)),
    "dissensus-exotic-4x6": Scenario(
        name="dissensus-exotic-4x6", shape=NetworkShape(4, 6),
        coefficients=CriticalCoefficients(c_d=1.0, c_c=-1.0, c_dl=-1.0, c_s=-1.0),
        sigmoids=SigmoidParams(-0.1, -0.3)),
}


def get_scenario(name: str) -> Scenario:
    try:
        return BUILTIN_SCENARIOS[name]
    except KeyError:
        raise KeyError(f"unknown scenario {name!r}; built-ins: "
                       f"{', '.join(sorted(BUILTIN_SCENARIOS))}") from None


@dataclass(kw_only=True)
class RunReport(EquilibriumResult):
    """Outcome of one seeded run: the integrator's result plus what the
    scenario made of it; serializable and reproducible from (scenario, seed)."""

    scenario: str
    seed: int
    lam: float
    pattern: PatternReport | None = None
    axial_index: int | None = None
    axial_case: str | None = None
    axial_verdict: str | None = None
    axial_rho: str | None = None
    axial_split: tuple[int, int] | None = None

    @property
    def outcome(self) -> str:
        """The pattern class of the final state, or why there is none:
        Divergent, Ambiguous (converged, but its quantization is ambiguous)
        or Unconverged."""
        if self.pattern is not None:
            return self.pattern.pattern_class.value
        if self.diverged:
            return "Divergent"
        return "Ambiguous" if self.converged else "Unconverged"

    def to_json_dict(self) -> dict:
        d = {"scenario": self.scenario, "seed": self.seed, "lambda": self.lam}
        d.update((f.name, getattr(self, f.name))
                 for f in dataclasses.fields(EquilibriumResult))
        d["final"] = self.final.tolist()
        d["pattern"] = None if self.pattern is None else self.pattern.to_dict()
        d["axial_match"] = None if self.axial_index is None else {
            "index": self.axial_index,
            "case": self.axial_case,
            "verdict": self.axial_verdict,
            "rho": self.axial_rho,
            "split": None if self.axial_split is None else list(self.axial_split),
        }
        return d


def _starts(scenario: Scenario) -> list[np.ndarray]:
    """The start of every seed of the scenario, in seed order."""
    return [random_near_origin(scenario.shape, scenario.radius, seed) for seed in scenario.seeds]


def _classified(scenario: Scenario, lam: float, runs):
    """Reports on the runs of the scenario's seeds at lam, one (trajectory,
    result) per seed in seed order, yielding (trajectory, report, coloring)
    per seed.

    Only a run that converged is quantized and classified; any other run,
    and a converged one whose quantization is ambiguous, keeps pattern =
    None and coloring = None.
    """
    for seed, (traj, res) in zip(scenario.seeds, runs):
        report = RunReport(**vars(res), scenario=scenario.name, seed=seed, lam=lam)
        coloring = None
        if res.converged:
            try:
                coloring = quantize_to_coloring(res.final, scenario.quantize_tol)
            except AmbiguousQuantizationError:
                pass
            else:
                report.pattern = classify_state(coloring, res.final)
                report.pattern.quantization_tol = scenario.quantize_tol
        yield traj, report, coloring


def run_scenario(scenario: Scenario, out_dir: str | None = None) -> list[RunReport]:
    """Integrate every seed of the scenario, classify the converged finals,
    and match them against the axial catalog of the shape.  A shape over
    MAX_AXIAL_CELLS cells has no catalog: its runs are integrated and
    classified, and none gets an axial match.

    Divergent and unconverged runs are flagged in their report, never fatal.
    When out_dir is given, per-seed JSON reports, CSV trajectories and SVG
    heatmaps plus a scenario summary are written there.
    """
    try:
        catalog = enumerate_axial(scenario.shape)
    except CatalogTooLargeError:
        catalog = None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    cfg = scenario.model_config()
    runs = integrate_batch(_starts(scenario), cfg, scenario.integrator_config())
    reports = []
    for traj, report, coloring in _classified(scenario, cfg.lam, runs):
        if catalog is not None and coloring is not None:
            entry = catalog.match(coloring)
            if entry is not None:
                assert is_axial_Vd(entry.coloring)
                report.axial_index = catalog.index_of(entry)
                report.axial_case = entry.case
                report.axial_verdict = classify_orbital_exotic(entry.coloring)
                report.axial_rho = None if entry.rho is None else str(entry.rho)
                report.axial_split = entry.split
        reports.append(report)
        if out_dir is not None:
            stem = os.path.join(out_dir, f"{scenario.name}_seed{report.seed}")
            with open(stem + ".json", "w") as fh:
                json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
                fh.write("\n")
            trajectory_to_csv(traj, stem + ".csv")
            write_heatmap_svg(report.final, stem + ".svg",
                              title=f"{scenario.name} seed {report.seed}")

    if out_dir is not None:
        summary = _summarize(scenario, reports)
        with open(os.path.join(out_dir, f"{scenario.name}_summary.json"), "w") as fh:
            json.dump(summary, fh, sort_keys=True, indent=2)
            fh.write("\n")
    return reports


def _summarize(scenario: Scenario, reports: list[RunReport]) -> dict:
    return {
        "scenario": scenario.name,
        "lambda": scenario.lambda_value(),
        "epsilon": scenario.epsilon,
        "n_seeds": len(reports),
        "n_converged": sum(r.converged for r in reports),
        "class_counts": Counter(r.outcome for r in reports),
        "axial_matches": sum(r.axial_index is not None for r in reports),
        "axial_verdict_counts": Counter(r.axial_verdict for r in reports
                                        if r.axial_verdict),
    }


def sweep_lambda(scenario: Scenario, lambdas, out_csv: str | None = None) -> list[dict]:
    """Re-integrate the scenario's seeds at each lambda; per lambda, report
    the fraction of seeds that converged, the fraction converging to zero,
    the fraction per pattern class (RunReport.outcome), and the mean final
    amplitude over the classified seeds."""
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambda list must be nonempty")
    starts = _starts(scenario)
    rows = []
    for lam in lambdas:
        # one integrate call per seed, not one batch: the sweep-consensus
        # benchmark gate checks each seed's call (perfbench/workloads.py)
        cfg, icfg = scenario.model_config(lam), scenario.integrator_config(lam)
        runs = [integrate(Z0, cfg, icfg) for Z0 in starts]
        reports = [report for _, report, _ in _classified(scenario, cfg.lam, runs)]
        outcomes = Counter(r.outcome for r in reports)
        amps = [float(np.abs(r.final).max()) for r in reports if r.pattern is not None]
        n = len(reports)
        row = {
            "lambda": lam,
            "n_seeds": n,
            "frac_converged": sum(r.converged for r in reports) / n,
            "frac_zero": sum(a <= ZERO_AMPLITUDE for a in amps) / n,
            "mean_amplitude": sum(amps) / len(amps) if amps else float("nan"),
        }
        for cls in PatternClass:
            row[f"frac_{cls.value}"] = outcomes[cls.value] / n
        rows.append(row)
    if out_csv is not None:
        cols = list(rows[0].keys())
        lines = [",".join(cols)]
        for row in rows:
            lines.append(",".join(f"{row[c]:.17g}" if isinstance(row[c], float)
                                  else str(row[c]) for c in cols))
        with open(out_csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return rows


def catalog_rows(shape: NetworkShape) -> tuple[AxialCatalog, list[dict]]:
    """Axial catalog of the shape plus one printable row per entry, in
    catalog order."""
    cat = enumerate_axial(shape)
    rows = []
    for idx, e in enumerate(cat):
        rows.append({
            "index": idx,
            "case": e.case,
            "verdict": classify_orbital_exotic(e.coloring),
            "num_colors": e.coloring.num_colors,
            "rho": None if e.rho is None else str(e.rho),
            "split": None if e.split is None else list(e.split),
            "coloring": e.coloring.to_text(),
        })
    return cat, rows


# ---------------------------------------------------------------------------
# SVG heatmap
# ---------------------------------------------------------------------------

_NEG = (178, 24, 43)    # strong negative: red
_MID = (247, 247, 247)  # zero: near white
_POS = (33, 102, 172)   # strong positive: blue


def _diverging_color(v: float, vmax: float) -> str:
    if vmax <= 0:
        vmax = 1.0
    t = max(-1.0, min(1.0, v / vmax))
    if t < 0:
        a, b, f = _MID, _NEG, -t
    else:
        a, b, f = _MID, _POS, t
    rgb = tuple(round(a[k] + f * (b[k] - a[k])) for k in range(3))
    return "#{:02x}{:02x}{:02x}".format(*rgb)


def write_heatmap_svg(Z, path: str, title: str | None = None):
    """Value heatmap of a state: one rect per cell, red = low, blue = high,
    with agent / option labels."""
    Z = np.asarray(Z, dtype=float)
    m, n = Z.shape
    cell, left, top = 42, 64, 40 if title else 24
    width, height = left + n * cell + 12, top + m * cell + 30
    vmax = float(np.abs(Z).max())
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}" viewBox="0 0 {width} {height}">']
    parts.append(f'<rect width="{width}" height="{height}" fill="white"/>')
    if title:
        # html.escape(title, quote=False), without importing html
        title = title.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
        parts.append(f'<text x="{left}" y="18" font-family="sans-serif" '
                     f'font-size="13">{title}</text>')
    for j in range(n):
        x = left + j * cell + cell / 2
        parts.append(f'<text x="{x:g}" y="{top - 6}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="11">opt {j + 1}</text>')
    for i in range(m):
        y = top + i * cell + cell / 2 + 4
        parts.append(f'<text x="{left - 6}" y="{y:g}" text-anchor="end" '
                     f'font-family="sans-serif" font-size="11">agent {i + 1}</text>')
        for j in range(n):
            x, y0 = left + j * cell, top + i * cell
            color = _diverging_color(Z[i, j], vmax)
            parts.append(f'<rect x="{x}" y="{y0}" width="{cell}" height="{cell}" '
                         f'fill="{color}" stroke="#555" stroke-width="0.5"/>')
    parts.append(f'<text x="{left}" y="{height - 8}" font-family="sans-serif" '
                 f'font-size="10">red = low value, blue = high value, '
                 f'|max| = {vmax:.4g}</text>')
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")
