"""L2 and L3 timings (the integrator) of one or more source trees, as JSON.

Every round starts one fresh interpreter per tree, in alternating order
(the rounds of tools/bench_l4.py), so the trees share the host's drift.
Each interpreter first integrates one short run (warm-up), then records:

* L2, for seed 0 of each built-in scenario integrated alone to its stop:
  the wall time of `integrate` (L2.wall_s.NAME, the median of CALLS
  calls), its steps (L2.steps.NAME, the result's n_steps) and its field
  evaluations (L2.evals.NAME: calls of the compiled field outside the
  Newton finish, each member of a stack counted once, from one more run
  with the field wrapped);
* L3, the wall time of each built-in's 20-seed `run_scenario`
  (L3.wall_s.NAME) and of `sweep_lambda` on consensus-4x6 over its 20
  seeds at the six lambdas of the benchmark (L3.wall_s.sweep), one call
  each.

The output holds, per tree, the median and quartiles over the rounds of
each figure, with the tree's git SHA, and the host, Python and numpy
versions.

Usage:
    python tools/bench_ode.py --rounds 5 --out BENCH_ODE.json \\
        parent=/path/to/parent/src change=src
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import time

SWEEP_LAMBDAS = (0.5, 0.9, 0.97, 1.03, 1.1, 1.5)
CALLS = 3     # L2 calls per scenario in one interpreter; the figure is their median


def counted_evals(integ, Z0, cfg, icfg) -> int:
    """Field evaluations of integrate(Z0) outside the Newton finish."""
    original, finish = integ._compiled_model, integ._newton_finish
    count, in_finish = [0], [False]

    def compiled(c):
        field, *rest = original(c)

        def counted(Z):
            count[0] += 0 if in_finish[0] else len(Z)
            return field(Z)
        return (counted, *rest)

    def newton(*args):
        in_finish[0] = True
        try:
            return finish(*args)
        finally:
            in_finish[0] = False
    integ._compiled_model, integ._newton_finish = compiled, newton
    try:
        integ.integrate(Z0, cfg, icfg)
    finally:
        integ._compiled_model, integ._newton_finish = original, finish
    return count[0]


def child():
    import numpy as np

    from indecision import (BUILTIN_SCENARIOS, IntegratorConfig, get_scenario, integrate,
                            random_near_origin, run_scenario, sweep_lambda)

    integ = sys.modules["indecision.integrate"]
    names = sorted(BUILTIN_SCENARIOS)
    warm = get_scenario(names[0])
    integrate(random_near_origin(warm.shape, warm.radius, 0), warm.model_config(),
              IntegratorConfig(t_max=5.0))
    out = {}
    for name in names:
        sc = get_scenario(name)
        cfg, icfg = sc.model_config(), sc.integrator_config()
        Z0 = random_near_origin(sc.shape, sc.radius, 0)
        walls = []
        for _ in range(CALLS):
            start = time.perf_counter()
            _, res = integrate(Z0, cfg, icfg)
            walls.append(time.perf_counter() - start)
        out[f"L2.wall_s.{name}"] = statistics.median(walls)
        out[f"L2.steps.{name}"] = res.n_steps
        out[f"L2.evals.{name}"] = counted_evals(integ, Z0, cfg, icfg)
    for name in names:
        start = time.perf_counter()
        run_scenario(get_scenario(name))
        out[f"L3.wall_s.{name}"] = time.perf_counter() - start
    start = time.perf_counter()
    sweep_lambda(get_scenario("consensus-4x6"), SWEEP_LAMBDAS)
    out["L3.wall_s.sweep"] = time.perf_counter() - start
    print(json.dumps({"figures": out, "python": platform.python_version(),
                      "numpy": np.__version__}))


def main():
    from bench_l4 import run_rounds, write_summary

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", help="label=path of a source tree's src directory")
    ap.add_argument("--rounds", type=int, default=5)
    ap.add_argument("--out", default=None, help="JSON file to write (default: stdout)")
    args = ap.parse_args()
    trees = dict(t.split("=", 1) for t in args.trees)
    runs = run_rounds(__file__, trees, args.rounds)
    write_summary(args.out, __doc__, trees, runs, rounds=args.rounds, calls=CALLS)


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        main()
