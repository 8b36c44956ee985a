"""Memory footprint and start-up time of one or more source trees, as JSON.

Every round starts fresh interpreters per tree, in alternating order (the
rounds of tools/bench_l4.py), one for each stage, so that each peak is that
of a process doing the stage alone.  Each interpreter records the wall time
of its stage and the process's peak RSS (ru_maxrss) at its end:

* import: `import indecision` (import_s, import_peak_rss_mb);
* starts: `import indecision`, then the 20 seeded starts of
  dissensus-exotic-4x6 by `random_near_origin` (starts_s, the starts alone,
  and starts_peak_rss_mb);
* simulate: `import indecision`, then `indecision simulate` on
  dissensus-exotic-4x6 seeds 0 and 1 through `cli.main`, writing its files
  to a temporary directory (simulate_s, the call alone, and
  simulate_peak_rss_mb).

The output holds, per tree, the median and quartiles over the rounds of
each figure, and after the first tree its pair fields against the first
(see write_summary), with the tree's git SHA, and the host, Python and
numpy versions.

Usage:
    python tools/bench_footprint.py --rounds 10 --out BENCH_FOOTPRINT.json \\
        parent=/path/to/parent/src change=src

Take the trees the same way, both `git archive` exports or both clones: a
clone reads about 0.4 MB less peak RSS than an export of the same commit.
"""

from __future__ import annotations

import json
import platform
import resource
import sys
import time

STAGES = ("import", "starts", "simulate")
SCENARIO = "dissensus-exotic-4x6"
SIMULATE_SEEDS = "0,1"


def child(stage):
    start = time.perf_counter()
    import numpy as np

    import indecision
    from indecision import cli
    seconds = time.perf_counter() - start
    if stage == "starts":
        sc = indecision.get_scenario(SCENARIO)
        start = time.perf_counter()
        [indecision.random_near_origin(sc.shape, sc.radius, seed) for seed in sc.seeds]
        seconds = time.perf_counter() - start
    elif stage == "simulate":
        # imported here, so that the other stages' peaks hold only what they measure
        import contextlib
        import io
        import tempfile
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(io.StringIO()):
            start = time.perf_counter()
            status = cli.main(["simulate", "--scenario", SCENARIO, "--seeds", SIMULATE_SEEDS,
                               "--out-dir", out])
            seconds = time.perf_counter() - start
        if status != 0:
            raise SystemExit(f"simulate exited with status {status}")
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"figures": {f"{stage}_s": seconds, f"{stage}_peak_rss_mb": peak},
                      "python": platform.python_version(), "numpy": np.__version__}))


if __name__ == "__main__":
    if sys.argv[1:2] == ["--child"]:
        child(sys.argv[2])
    else:
        # not imported by the children, whose peaks it would raise
        from bench_l4 import main
        main(__file__, __doc__, 10, [(stage,) for stage in STAGES])
