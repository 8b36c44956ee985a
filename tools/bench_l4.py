"""L4 timings (the exact layer) of one or more source trees, written as JSON.

Every round starts one fresh interpreter per tree, in alternating order, so
the trees share the host's drift.  Each interpreter first builds a 3x3
catalog (warm-up), then for each benchmark shape (4x6, 5x5, 5x6) makes
CALLS `catalog_rows` calls, each from cold caches, and records the median
over those calls of:

* catalog_rows_ms: the whole call;
* canonical_form_ms: time inside outermost `canonical_form` calls;
* isotropy_ms: time inside outermost `isotropy_subgroup` calls;
* axial_check_ms: time inside outermost `is_axial_Vd` calls (balance and
  the V_d dimension);

then times `canonical_form` CALLS times from a cold cache on the
all-distinct 4x6 and 5x6 colorings (median), and last builds the 7x6
catalog and times CALLS passes of `isotropy_subgroup` over its entries
(isotropy_ms.7x6, the median pass).  The output holds, per tree, the
median and quartiles over the rounds of each interpreter's figure, and
after the first tree its pair fields against the first (see
write_summary), with the tree's git SHA, and the host, Python and numpy
versions.

Usage:
    python tools/bench_l4.py --rounds 7 --out BENCH_L4.json \\
        parent=/path/to/parent/src change=src
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

SHAPES = ((4, 6), (5, 5), (5, 6))
ISOTROPY_SHAPE = (7, 6)
ALL_DISTINCT = ((4, 6), (5, 6))
CALLS = 5     # cold calls per shape in one interpreter; each figure is their median


def timed(owner, name, totals):
    """Replace owner.name by a wrapper adding its outermost calls' time to
    totals[name]."""
    inner, depth = getattr(owner, name), [0]

    def wrapper(*args):
        depth[0] += 1
        start = time.perf_counter()
        try:
            return inner(*args)
        finally:
            depth[0] -= 1
            if not depth[0]:
                totals[name] += time.perf_counter() - start
    setattr(owner, name, wrapper)


def child():
    import numpy as np

    from indecision import colorings
    from indecision.experiments import catalog_rows
    from indecision.model import NetworkShape
    from indecision.patterns import Coloring

    caches = (colorings.enumerate_axial, colorings.canonical_form,
              colorings.classify_orbital_exotic)
    totals = {"canonical_form": 0.0, "isotropy_subgroup": 0.0, "is_axial_Vd": 0.0}
    for name in totals:
        timed(colorings, name, totals)
    catalog_rows(NetworkShape(3, 3))
    out = {}
    for m, n in SHAPES:
        calls = []
        for _ in range(CALLS):
            for cached in caches:
                cached.cache_clear()
            totals.update(dict.fromkeys(totals, 0.0))
            start = time.perf_counter()
            catalog_rows(NetworkShape(m, n))
            calls.append({f"catalog_rows_ms.{m}x{n}": (time.perf_counter() - start) * 1e3,
                          f"canonical_form_ms.{m}x{n}": totals["canonical_form"] * 1e3,
                          f"isotropy_ms.{m}x{n}": totals["isotropy_subgroup"] * 1e3,
                          f"axial_check_ms.{m}x{n}": totals["is_axial_Vd"] * 1e3})
        out.update({key: statistics.median(call[key] for call in calls) for key in calls[0]})
    for m, n in ALL_DISTINCT:
        c = Coloring.from_rows([[i * n + j for j in range(n)] for i in range(m)])
        times = []
        for _ in range(CALLS):
            caches[1].cache_clear()
            start = time.perf_counter()
            caches[1](c)
            times.append(time.perf_counter() - start)
        out[f"all_distinct_s.{m}x{n}"] = statistics.median(times)
    entries = [e.coloring for e in colorings.enumerate_axial(NetworkShape(*ISOTROPY_SHAPE))]
    times = []
    for _ in range(CALLS):
        start = time.perf_counter()
        for c in entries:
            colorings.isotropy_subgroup(c)
        times.append(time.perf_counter() - start)
    out["isotropy_ms.{}x{}".format(*ISOTROPY_SHAPE)] = statistics.median(times) * 1e3
    print(json.dumps({"figures": out, "python": platform.python_version(),
                      "numpy": np.__version__}))


def git_sha(src):
    try:
        return subprocess.run(["git", "-C", src, "describe", "--always", "--dirty", "--abbrev=40"],
                              capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            return next(line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name"))
    except (OSError, StopIteration):
        return platform.processor() or None


def run_rounds(script, trees, rounds, *child_args):
    """Run `script --child *child_args` once per tree and round in a fresh
    interpreter, with the tree on PYTHONPATH, alternating the order of the
    trees from round to round; per tree label, the parsed JSON output of
    each run, round by round."""
    runs = {label: [] for label in trees}
    for r in range(rounds):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for label in order:
            env = {**os.environ, "PYTHONPATH": os.path.abspath(trees[label]),
                   "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
            proc = subprocess.run([sys.executable, script, "--child", *child_args], env=env,
                                  capture_output=True, text=True, check=True)
            runs[label].append(json.loads(proc.stdout))
    return runs


def quartiles(values):
    """q1, median and q3 of values (each the value itself when there is one)."""
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def write_summary(out, doc, trees, runs, **fields):
    """Write to the file out (stdout when None) the JSON document of a
    benchmark tool whose module docstring is doc: host, method, the extra
    fields, and per tree its git SHA and the median and quartiles over the
    runs of each figure.  Every tree after the first also gets, per figure,
    its pair fields against the first tree: ratio (its median over the first
    tree's), lower_rounds (in how many rounds it read below the first tree)
    and beyond_iqr (whether the two medians differ by more than the first
    tree's q3 - q1).  A move is resolved only when one side reads lower in
    at least nine tenths of the rounds and the gap is beyond_iqr; anything
    less is within the host's noise."""
    sample = next(iter(runs.values()))[0]
    result = {"host": {"cpu": cpu_model(), "nproc": os.cpu_count(),
                       "machine": platform.machine(),
                       "python": sample["python"], "numpy": sample["numpy"]},
              **fields,
              "method": doc.split("\n\n", 1)[1].split("\n\nUsage")[0],
              "trees": {}}
    first = next(iter(trees))
    for label, src in trees.items():
        figures = {}
        for key in runs[label][0]["figures"]:
            values = [run["figures"][key] for run in runs[label]]
            q1, median, q3 = quartiles(values)
            figures[key] = {"median": round(median, 4), "q1": round(q1, 4), "q3": round(q3, 4)}
            if label != first:
                base = [run["figures"][key] for run in runs[first]]
                b1, b2, b3 = quartiles(base)
                figures[key].update(ratio=round(median / b2, 4),
                                    lower_rounds=sum(v < b for v, b in zip(values, base)),
                                    beyond_iqr=abs(median - b2) > b3 - b1)
        result["trees"][label] = {"git_sha": git_sha(src), "figures": figures}
    text = json.dumps(result, indent=2, sort_keys=True)
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def main(script, doc, rounds, stages=((),), **fields):
    """The command line of the benchmark tool script, whose module docstring
    is doc: source trees as label=path, --rounds (default rounds) and --out.
    Each stage of stages (a tuple of child arguments) runs over the rounds
    in run_rounds; each round's figures are merged over the stages, and the
    summary is written with the extra fields.  Take the trees the same way,
    both `git archive` exports or both clones: a clone reads about 0.4 MB
    less peak RSS than an export of the same commit."""
    ap = argparse.ArgumentParser(description=doc.split("\n\n")[0])
    ap.add_argument("trees", nargs="+", help="label=path of a source tree's src directory")
    ap.add_argument("--rounds", type=int, default=rounds)
    ap.add_argument("--out", default=None, help="JSON file to write (default: stdout)")
    args = ap.parse_args()
    trees = dict(t.split("=", 1) for t in args.trees)
    runs = {label: [{"figures": {}} for _ in range(args.rounds)] for label in trees}
    for stage in stages:
        for label, stage_runs in run_rounds(script, trees, args.rounds, *stage).items():
            for run, stage_run in zip(runs[label], stage_runs):
                run.update(stage_run, figures={**run["figures"], **stage_run["figures"]})
    write_summary(args.out, doc, trees, runs, rounds=args.rounds, **fields)


if __name__ == "__main__":
    if sys.argv[1:] == ["--child"]:
        child()
    else:
        main(__file__, __doc__, 7, calls=CALLS)
