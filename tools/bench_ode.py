"""L0-L3 timings (the field and the integrator) of one or more source
trees, as JSON.

Every round starts one fresh interpreter per tree, in alternating order
(the rounds of tools/bench_l4.py), so the trees share the host's drift.
Each interpreter first integrates one short run (warm-up), then records:

* L0, one call of the compiled field on a stack of B copies of the t = 60
  state of dissensus-exotic-4x6 seed 0, for B = 1, 20 and 200
  (L0.field_us.BB, microseconds, the median over REPEATS timings of a
  batch of calls);
* L1, one RKC step (`_rkc_step` and `_error_norms`) at the first trial
  step of dissensus-exotic-4x6 from seed 0 (B = 1) and from seeds 0-19
  (B = 20) (L1.step_us.BB, microseconds, timed the same way), the step
  passed as integrate passes it at B = 1, a float, and as a (B, 1, 1)
  array at B = 20, the form of a batch whose members' steps differ; the
  same step from seeds 0-19 with member k's step (1 + k/4) / rho, a
  (B, 1, 1) array, so 4, 13 and 3 members take 2, 3 and 4 stages
  (L1.step_us.B20mixed, the mixed-stage path most batch steps take); and
  one stability gate, `jacobian` plus `eigvals` at the t = 60 state of L0
  (L1.gate_us, timed the same way);
* L2, for seed 0 of each built-in scenario integrated alone to its stop:
  the wall time of `integrate` (L2.wall_s.NAME, the median of CALLS
  calls), its steps (L2.steps.NAME, the result's n_steps) and its field
  evaluations outside the Newton finish (L2.evals.NAME, the result's
  n_evals);
* L3, the wall time of each built-in's 20-seed `run_scenario`
  (L3.wall_s.NAME) and of `sweep_lambda` on consensus-4x6 over its 20
  seeds at the six lambdas of the benchmark (L3.wall_s.sweep), one call
  each.

The output holds, per tree, the median and quartiles over the rounds of
each figure, and after the first tree its pair fields against the first
(see write_summary), with the tree's git SHA, and the host, Python and
numpy versions.

Usage:
    python tools/bench_ode.py --rounds 5 --out BENCH_ODE.json \\
        parent=/path/to/parent/src change=src
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
import time
import timeit

SWEEP_LAMBDAS = (0.5, 0.9, 0.97, 1.03, 1.1, 1.5)
CALLS = 3     # L2 calls per scenario in one interpreter; the figure is their median
REPEATS = 7   # L0 and L1 timings per figure in one interpreter; the figure is their median
L0_SIZES = (1, 20, 200)


def per_call_us(call, number) -> float:
    """Median over REPEATS timings of number calls of call(), per call, in
    microseconds."""
    return statistics.median(timeit.repeat(call, number=number, repeat=REPEATS)) / number * 1e6


def l0_l1_figures(integ) -> dict:
    """The L0 and L1 figures of the module docstring."""
    import numpy as np

    from indecision import IntegratorConfig, get_scenario, jacobian, random_near_origin

    sc = get_scenario("dissensus-exotic-4x6")
    cfg, icfg = sc.model_config(), sc.integrator_config()
    f = integ._compiled_model(cfg)[0]
    out = {}
    _, res = integ.integrate(random_near_origin(sc.shape, sc.radius, 0), cfg,
                             IntegratorConfig(step=icfg.step, t_max=60.0))
    for size in L0_SIZES:
        Z = np.repeat(res.final[None], size, axis=0)
        out[f"L0.field_us.B{size}"] = per_call_us(lambda: f(Z), max(20, 4000 // size))
    rho = integ.spectral_bound(cfg)
    steps = {"B1": [icfg.step], "B20": [icfg.step] * 20,
             "B20mixed": [(1 + k / 4) / rho for k in range(20)]}
    for name, hs in steps.items():
        Z = np.array([random_near_origin(sc.shape, sc.radius, seed) for seed in range(len(hs))])
        F = f(Z)
        h = hs[0] if len(hs) == 1 else np.array(hs)[:, None, None]
        s = [integ._stage_count(hi, rho) for hi in hs]

        def step():
            Y, FY = integ._rkc_step(f, Z, F, h, s)
            integ._error_norms(Z, Y, F, FY, h)
        out[f"L1.step_us.{name}"] = per_call_us(step, max(20, 400 // len(hs)))
    out["L1.gate_us"] = per_call_us(lambda: np.linalg.eigvals(jacobian(res.final, cfg)), 200)
    return out


def child():
    import numpy as np

    from indecision import (BUILTIN_SCENARIOS, IntegratorConfig, get_scenario, integrate,
                            random_near_origin, run_scenario, sweep_lambda)

    integ = sys.modules["indecision.integrate"]
    names = sorted(BUILTIN_SCENARIOS)
    warm = get_scenario(names[0])
    integrate(random_near_origin(warm.shape, warm.radius, 0), warm.model_config(),
              IntegratorConfig(t_max=5.0))
    out = l0_l1_figures(integ)
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
        out[f"L2.evals.{name}"] = res.n_evals
    for name in names:
        start = time.perf_counter()
        run_scenario(get_scenario(name))
        out[f"L3.wall_s.{name}"] = time.perf_counter() - start
    start = time.perf_counter()
    sweep_lambda(get_scenario("consensus-4x6"), SWEEP_LAMBDAS)
    out["L3.wall_s.sweep"] = time.perf_counter() - start
    print(json.dumps({"figures": out, "python": platform.python_version(),
                      "numpy": np.__version__}))


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        from bench_l4 import main
        main(__file__, __doc__, 5, calls=CALLS, repeats=REPEATS)
