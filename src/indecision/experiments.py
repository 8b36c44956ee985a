"""Packaged experiments: named scenarios, seeded batch runs, lambda sweeps.

A scenario fixes the network shape, the four subspace growth coefficients
(the gains are recovered by inverting the 4x4 interaction matrix), the two
saturation offsets, and an offset epsilon above the first bifurcation
threshold.  Each seeded run integrates from a random state near the origin,
classifies the converged pattern, and looks it up in the axial catalog of
the shape.

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
import os
from dataclasses import dataclass

import numpy as np

from .colorings import AxialCatalog, classify_orbital_exotic, enumerate_axial, is_axial_Vd
from .integrate import IntegratorConfig, integrate, random_near_origin, trajectory_to_csv
from .model import (CriticalCoefficients, GainParams, ModelConfig, NetworkShape,
                    SigmoidParams, bifurcation_threshold, gains_from_coefficients)
from .patterns import PatternClass, PatternReport, classify_state, quantize_to_coloring

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
ZERO_AMPLITUDE = 1e-6  # below this a final state counts as "converged to 0"


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
    quantize_tol: float = 1e-4
    step: float = 0.05
    t_max: float | None = None  # None: sized from epsilon
    equilibrium_tol: float = 1e-9
    record_stride: int = 10

    def __post_init__(self):
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if not self.seeds:
            raise ValueError("seeds must be nonempty")
        if self.quantize_tol <= 0:
            raise ValueError("quantize_tol must be > 0")

    @classmethod
    def from_dict(cls, raw: dict, base: "Scenario | None" = None) -> "Scenario":
        """Scenario from a JSON config; keys missing from raw keep base's
        values.  Schema (every key optional, except coefficients when no
        base is given; without a base, name defaults to "custom", shape to
        [4, 6] and sigmoids to [0.5, 0.3]):

        {
          "name": "my-scenario",
          "shape": [4, 6],
          "coefficients": {"c_d": 1.0, "c_c": -1.0, "c_dl": -0.5, "c_s": -0.5},
          "sigmoids": [0.5, 0.3],
          "epsilon": 0.01,
          "seeds": [0, 1, 2],
          "radius": 0.001,
          "quantize_tol": 0.0001,
          "integrator": {"step": 0.05, "t_max": 3000.0,
                         "equilibrium_tol": 1e-9, "record_stride": 10}
        }
        """
        kw = {k: raw[k] for k in ("name", "epsilon", "radius", "quantize_tol") if k in raw}
        integ = raw.get("integrator", {})
        kw.update((k, integ[k]) for k in ("step", "t_max", "equilibrium_tol", "record_stride")
                  if k in integ)
        if "shape" in raw:
            kw["shape"] = NetworkShape(*raw["shape"])
        if "coefficients" in raw:
            kw["coefficients"] = CriticalCoefficients(**raw["coefficients"])
        if "sigmoids" in raw:
            kw["sigmoids"] = SigmoidParams(*raw["sigmoids"])
        if "seeds" in raw:
            kw["seeds"] = tuple(raw["seeds"])
        if base is not None:
            return dataclasses.replace(base, **kw)
        if "coefficients" not in kw:
            raise ValueError("config needs 'coefficients' when no base scenario is given")
        return cls(**{"name": "custom", "shape": NetworkShape(4, 6),
                      "sigmoids": SigmoidParams(0.5, 0.3), **kw})

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

    def integrator_config(self, growth_rate: float | None = None) -> IntegratorConfig:
        t_max = self.t_max
        if t_max is None:
            # escape from a radius-r neighborhood grows like exp(rate * t);
            # allow ~15 e-foldings plus settling time
            rate = self.epsilon if growth_rate is None else growth_rate
            t_max = 15.0 / max(rate, 1e-3) + 1500.0
        return IntegratorConfig(step=self.step, t_max=t_max,
                                equilibrium_tol=self.equilibrium_tol,
                                record_stride=self.record_stride)

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


@dataclass
class RunReport:
    """Outcome of one seeded run, serializable and reproducible from
    (scenario, seed)."""

    scenario: str
    seed: int
    lam: float
    converged: bool
    diverged: bool
    residual: float
    elapsed_time: float
    final: np.ndarray
    pattern: PatternReport | None
    axial_index: int | None = None
    axial_case: str | None = None
    axial_verdict: str | None = None
    axial_rho: str | None = None
    axial_split: tuple[int, int] | None = None

    def to_json_dict(self) -> dict:
        d = {
            "scenario": self.scenario,
            "seed": self.seed,
            "lambda": self.lam,
            "converged": self.converged,
            "diverged": self.diverged,
            "residual": self.residual,
            "elapsed_time": self.elapsed_time,
            "final": [list(map(float, row)) for row in self.final],
            "pattern": None,
            "axial_match": None,
        }
        if self.pattern is not None:
            d["pattern"] = json.loads(self.pattern.to_json())
        if self.axial_index is not None:
            d["axial_match"] = {
                "index": self.axial_index,
                "case": self.axial_case,
                "verdict": self.axial_verdict,
                "rho": self.axial_rho,
                "split": None if self.axial_split is None else list(self.axial_split),
            }
        return d


def _run_seeds(scenario: Scenario, cfg: ModelConfig, icfg: IntegratorConfig):
    """Integrate every seed of the scenario under one model and integrator
    config, yielding (trajectory, report, coloring) per seed in seed order.

    Only a run that converged without diverging is quantized and classified;
    any other run keeps pattern = None and coloring = None.
    """
    for seed in scenario.seeds:
        Z0 = random_near_origin(scenario.shape, scenario.radius, seed)
        traj, res = integrate(Z0, cfg, icfg)
        report = RunReport(scenario=scenario.name, seed=seed, lam=cfg.lam,
                           converged=res.converged, diverged=res.diverged,
                           residual=res.residual, elapsed_time=res.elapsed_time,
                           final=res.final, pattern=None)
        coloring = None
        if res.converged and not res.diverged:
            coloring = quantize_to_coloring(res.final, scenario.quantize_tol)
            report.pattern = classify_state(coloring, res.final)
            report.pattern.quantization_tol = scenario.quantize_tol
        yield traj, report, coloring


def run_scenario(scenario: Scenario, out_dir: str | None = None,
                 match_catalog: bool = True) -> list[RunReport]:
    """Integrate every seed of the scenario, classify the converged finals,
    and match them against the axial catalog of the shape.

    Divergent and unconverged runs are flagged in their report, never fatal.
    When out_dir is given, per-seed JSON reports, CSV trajectories and SVG
    heatmaps plus a scenario summary are written there.
    """
    catalog = enumerate_axial(scenario.shape) if match_catalog else None
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)

    reports = []
    runs = _run_seeds(scenario, scenario.model_config(), scenario.integrator_config())
    for traj, report, coloring in runs:
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
    counts: dict[str, int] = {}
    verdicts: dict[str, int] = {}
    for r in reports:
        if r.pattern is not None:
            key = r.pattern.pattern_class.value
        else:
            key = "Divergent" if r.diverged else "Unconverged"
        counts[key] = counts.get(key, 0) + 1
        if r.axial_verdict:
            verdicts[r.axial_verdict] = verdicts.get(r.axial_verdict, 0) + 1
    return {
        "scenario": scenario.name,
        "lambda": scenario.lambda_value(),
        "epsilon": scenario.epsilon,
        "n_seeds": len(reports),
        "n_converged": sum(r.converged for r in reports),
        "class_counts": counts,
        "axial_matches": sum(r.axial_index is not None for r in reports),
        "axial_verdict_counts": verdicts,
    }


def sweep_lambda(scenario: Scenario, lambdas, out_csv: str | None = None) -> list[dict]:
    """Re-integrate the scenario's seeds at each lambda; per lambda, report
    the fraction of seeds converging to zero, the fraction per pattern
    class, and the mean final amplitude."""
    lambdas = list(lambdas)
    if not lambdas:
        raise ValueError("lambda list must be nonempty")
    c_first = scenario.coefficients.get(scenario.first_threshold().which)
    rows = []
    for lam in lambdas:
        cfg = scenario.model_config(lam=lam)
        rate = abs(lam * c_first - 1.0)
        icfg = scenario.integrator_config(growth_rate=max(rate, 1e-3))
        class_counts = {c.value: 0 for c in PatternClass}
        amps = []
        for _, report, _ in _run_seeds(scenario, cfg, icfg):
            if report.pattern is None:
                continue
            amps.append(float(np.abs(report.final).max()))
            class_counts[report.pattern.pattern_class.value] += 1
        n = len(scenario.seeds)
        row = {
            "lambda": lam,
            "n_seeds": n,
            "frac_converged": len(amps) / n,
            "frac_zero": sum(a <= ZERO_AMPLITUDE for a in amps) / n,
            "mean_amplitude": sum(amps) / len(amps) if amps else float("nan"),
        }
        for cls, cnt in class_counts.items():
            row[f"frac_{cls}"] = cnt / n
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
