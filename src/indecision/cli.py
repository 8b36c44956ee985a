"""Command line front end.

Subcommands:
  simulate    run a named or configured scenario over its seeds; finals are
              matched against the axial catalog when m*n <= MAX_AXIAL_CELLS
  sweep       census over an explicit lambda list
  catalog     enumerate and classify the axial patterns of a shape
  classify    read a value matrix from CSV and print its pattern report
  synthesize  verify a stable equilibrium on a balanced coloring

Scenario configs are JSON files read by `Scenario.from_dict`, whose
docstring gives the schema; --seeds and --epsilon override file values.
"""

from __future__ import annotations

import argparse
import json
import sys
from contextlib import contextmanager

import numpy as np

from .colorings import SearchBudgetError, check_axial_shape, synthesize_stable_admissible
from .experiments import (BUILTIN_SCENARIOS, DEFAULT_QUANTIZE_TOL, Scenario, catalog_rows,
                          get_scenario, run_scenario, sweep_lambda)
from .model import NetworkShape
from .patterns import Coloring, PatternClass, classify_state, quantize_to_coloring


def _parse_seeds(text: str) -> tuple[int, ...]:
    """Accepts '0,1,5' or a range '0..19'."""
    text = text.strip()
    if ".." in text:
        lo, hi = text.split("..")
        return tuple(range(int(lo), int(hi) + 1))
    return tuple(int(x) for x in text.split(",") if x.strip())


@contextmanager
def _usage_errors(args):
    """Invalid input raised in the block becomes a usage error, exit status 2."""
    try:
        yield
    except (ValueError, SearchBudgetError, OSError) as exc:
        args.parser.error(str(exc))


def _scenario_from_args(args) -> Scenario:
    sc = get_scenario(args.scenario) if args.scenario else None
    if args.config:
        with open(args.config) as fh:
            sc = Scenario.from_dict(json.load(fh), base=sc)
    if sc is None:
        raise ValueError("need --scenario or --config")
    if args.seeds:
        sc = sc.replace(seeds=_parse_seeds(args.seeds))
    if args.epsilon is not None:
        sc = sc.replace(epsilon=args.epsilon)
    return sc


def _cmd_simulate(args) -> int:
    with _usage_errors(args):
        sc = _scenario_from_args(args)
        sc.integrator_config()  # raises on an infinite t_max or one under a step
    reports = run_scenario(sc, out_dir=args.out_dir)
    n_conv = sum(r.converged for r in reports)
    print(f"{sc.name}: lambda={sc.lambda_value():.6g}, "
          f"{n_conv}/{len(reports)} converged")
    for r in reports:
        match = f"axial #{r.axial_index} case {r.axial_case} {r.axial_verdict}" \
            if r.axial_index is not None else "no axial match"
        print(f"  seed {r.seed:3d}: converged={r.converged} residual={r.residual:.2e} "
              f"class={r.outcome} ({match})")
    if args.out_dir:
        print(f"reports written to {args.out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    with _usage_errors(args):
        sc = _scenario_from_args(args)
        lambdas = [float(x) for x in args.lambda_list.split(",") if x.strip()]
        if not lambdas:
            raise ValueError("--lambda-list names no lambda value")
        for lam in lambdas:
            sc.integrator_config(lam)  # raises on an infinite t_max or one under a step
    out_csv = None
    if args.out_dir:
        import os
        os.makedirs(args.out_dir, exist_ok=True)
        out_csv = os.path.join(args.out_dir, f"{sc.name}_sweep.csv")
    rows = sweep_lambda(sc, lambdas, out_csv=out_csv)
    for row in rows:
        fracs = [(cls.value, row[f"frac_{cls.value}"]) for cls in PatternClass]
        classes = "".join(f"{name}={frac:.2f} " for name, frac in fracs if frac)
        print(f"lambda={row['lambda']:.6g}: converged={row['frac_converged']:.2f} "
              f"zero={row['frac_zero']:.2f} {classes}"
              f"mean_amp={row['mean_amplitude']:.4g}")
    if out_csv:
        print(f"sweep written to {out_csv}")
    return 0


def _cmd_catalog(args) -> int:
    with _usage_errors(args):
        shape = NetworkShape(args.m, args.n)
        check_axial_shape(shape)
    cat, rows = catalog_rows(shape)
    by_case: dict[str, int] = {}
    by_verdict: dict[str, int] = {}
    for row in rows:
        by_case[row["case"]] = by_case.get(row["case"], 0) + 1
        by_verdict[row["verdict"]] = by_verdict.get(row["verdict"], 0) + 1
        extra = f"rho={row['rho']}" if row["rho"] else f"split={row['split']}"
        print(f"#{row['index']}: case {row['case']} {row['verdict']} "
              f"({row['num_colors']} colors, {extra})")
        for line in row["coloring"].splitlines():
            print("   " + line)
    print(f"total {len(rows)}: by case {by_case}, by verdict {by_verdict}")
    if args.out_dir:
        import os
        os.makedirs(args.out_dir, exist_ok=True)
        path = os.path.join(args.out_dir, f"axial_catalog_{args.m}x{args.n}.json")
        with open(path, "w") as fh:
            fh.write(cat.export_json() + "\n")
        print(f"catalog written to {path}")
    return 0


def _read_matrix(path) -> np.ndarray:
    with open(path) as fh:
        lines = [ln.strip() for ln in fh if ln.strip()]
    if lines and lines[0].startswith("t,"):
        # trajectory file: infer the shape from the header, use the last sample
        last_label = lines[0].split(",")[-1]          # "z_m_n"
        _, m, n = last_label.split("_")
        vals = [float(x) for x in lines[-1].split(",")][1:]
        return np.array(vals).reshape(int(m), int(n))
    if not lines:
        return np.zeros((0, 0))
    return np.array([[float(x) for x in ln.split(",")] for ln in lines])


def _cmd_classify(args) -> int:
    with _usage_errors(args):
        Z = _read_matrix(args.matrix)
        NetworkShape(*Z.shape)  # a matrix under 2x2 is rejected, naming its shape
        coloring = quantize_to_coloring(Z, args.tol)
    report = classify_state(coloring, Z)
    report.quantization_tol = args.tol
    print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0


def _cmd_synthesize(args) -> int:
    with _usage_errors(args):
        with open(args.coloring) as fh:
            coloring = Coloring.from_text(fh.read())
        # generic levels: distinct integers centered on zero
        K = coloring.num_colors
        levels = [k - (K - 1) / 2 for k in range(K)]
        y = [[levels[c] for c in row] for row in coloring.cells]
        fmap, report = synthesize_stable_admissible(coloring, y)
    payload = {
        "levels": [float(v) for v in fmap.levels],
        "polynomial_degree": len(fmap.coeffs) - 1,
        "residual_max": report.residual_max,
        "max_eigenvalue_deviation": report.max_eigenvalue_deviation,
        "exact_roots": report.exact_roots,
        "exact_slopes": report.exact_slopes,
        "stable": report.max_eigenvalue_deviation < 0.5,
    }
    print(json.dumps(payload, sort_keys=True, indent=2))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="indecision",
        description="Simulate and classify indecision-breaking on agent-option "
                    "influence networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p):
        p.add_argument("--scenario", choices=sorted(BUILTIN_SCENARIOS),
                       help="built-in scenario name")
        p.add_argument("--config", help="JSON scenario config (flags override)")
        p.add_argument("--seeds", help="comma list '0,3,7' or range '0..19'")
        p.add_argument("--epsilon", type=float, default=None,
                       help="offset above the bifurcation threshold")
        p.add_argument("--out-dir", default=None, help="directory for reports")
        p.set_defaults(parser=p)

    p_sim = sub.add_parser("simulate", help="run a scenario over its seeds")
    add_scenario_flags(p_sim)
    p_sim.set_defaults(func=_cmd_simulate)

    p_sweep = sub.add_parser("sweep", help="census over a lambda list")
    add_scenario_flags(p_sweep)
    p_sweep.add_argument("--lambda-list", required=True,
                         help="comma-separated lambda values")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_cat = sub.add_parser("catalog", help="axial catalog of a shape")
    p_cat.add_argument("m", type=int)
    p_cat.add_argument("n", type=int)
    p_cat.add_argument("--out-dir", default=None)
    p_cat.set_defaults(func=_cmd_catalog, parser=p_cat)

    p_cls = sub.add_parser("classify", help="pattern report for a CSV matrix")
    p_cls.add_argument("matrix", help="CSV file: one matrix row per line, or "
                                      "a trajectory file (the last sample is used)")
    p_cls.add_argument("--tol", type=float, default=DEFAULT_QUANTIZE_TOL,
                       help="quantization tolerance (default: %(default)g, as for "
                            "scenarios)")
    p_cls.set_defaults(func=_cmd_classify, parser=p_cls)

    p_syn = sub.add_parser("synthesize",
                           help="stable equilibrium on a balanced coloring")
    p_syn.add_argument("coloring", help="text file, one row of color ids per line")
    p_syn.set_defaults(func=_cmd_synthesize, parser=p_syn)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
