"""Layered benchmark for the indecision package.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout: the package is imported from
./src/indecision, and the run fails without printing a result when it is
not there.  Workloads, metrics and the predictions they test are described
in perfbench/README.md.

Untraced (--trace 0), the run sets the workload up several times in fresh
interpreters and reports the median as setup_s, then repeats the workload's
call until the next one would end after --seconds, and reports the median
call time as wall_s.  Traced (--trace 1), it makes call 0 once untraced and
once traced, writes the spans to perfbench/out/, and reports the per-layer
metrics of the traced call.  The last line of standard output is the result
as one JSON object.
"""

import os

# One thread everywhere: the numbers must not depend on how many cores the
# BLAS pool sees.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"
SETUP_SAMPLES = 5

CHILD_SETUP = """
import sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracing import Tracer
from workloads import WORKLOADS
WORKLOADS[sys.argv[3]](int(sys.argv[4]), None, Tracer(False)).prepare()
"""


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=40.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be >= 0")
    return args


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git (which
    would search the parent directories); "unknown" outside a repository."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        if (git / name).is_file():
            return (git / name).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import numpy
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"git_sha": git_sha(), "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace}


def setup_seconds(args) -> float:
    """Median wall time of a fresh interpreter that imports the package and
    runs the workload's set-up: what a CLI user pays before any work."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", CHILD_SETUP, str(SRC), str(BENCH_DIR),
                        args.workload, str(args.seed)], check=True, cwd=ROOT)
        samples.append(time.perf_counter() - t0)
    return statistics.median(samples)


def timed_call(workload, k):
    """Time call k from its reset cache state, then gate its output."""
    workload.reset()
    workload.tracer.kept.clear()
    t0 = time.perf_counter()
    out = workload.call(k)
    wall = time.perf_counter() - t0
    attempted, failed = workload.check(k, out)
    return wall, attempted, failed


def integrate_steps(runs) -> int:
    """RK4 steps of the kept integrate calls, from their results."""
    return sum(round(res.elapsed_time / args[2].step) for args, (_, res) in runs)


def vector_field_us(runs) -> float:
    """Median time of one vector_field call on states sampled from the
    run's trajectories (up to four per integration, 32 in all)."""
    from indecision.model import vector_field
    states = []
    for args, (traj, _) in runs:
        picks = traj.states[::max(1, len(traj.states) // 3)][:3] + [traj.final]
        states.extend((Z, args[1]) for Z in picks)
    states = states[::max(1, len(states) // 32)][:32]
    per_call = []
    for Z, cfg in states:
        t0 = time.perf_counter()
        for _ in range(20):
            vector_field(Z, cfg)
        per_call.append((time.perf_counter() - t0) / 20)
    return statistics.median(per_call) * 1e6 if per_call else 0.0


def median_us(spans) -> float:
    return statistics.median(s["end"] - s["start"] for s in spans) * 1e6 if spans else 0.0


def layer_metrics(tracer, workload, op, runs, cache_delta, wall_traced, wall_plain):
    from tracing import duration
    sel = lambda name: tracer.select(name, op=op)  # noqa: E731
    integ = sel("integrate.integrate")
    busy = duration(integ)
    steps = integrate_steps(runs)
    seed_s = [s["end"] - s["start"] for s in integ]
    m = {
        "model.vector_field_us": (vector_field_us(runs), "us"),
        "integrate.calls": (len(integ), "count"),
        "integrate.steps": (steps, "count"),
        "integrate.us_per_step": (busy / steps * 1e6 if steps else 0.0, "us"),
        "integrate.busy_s": (busy, "s"),
        "integrate.share": (busy / wall_traced, "ratio"),
        "integrate.seed_s.p50": (statistics.median(seed_s) if seed_s else 0.0, "s"),
        "integrate.seed_s.max": (max(seed_s, default=0.0), "s"),
        "integrate.converged_ratio": (
            sum(res.converged for _, (_, res) in runs) / len(runs) if runs else 0.0,
            "ratio"),
        "patterns.quantize_us": (median_us(sel("patterns.quantize_to_coloring")), "us"),
        "patterns.classify_us": (median_us(sel("patterns.classify_state")), "us"),
        "colorings.match_us": (median_us(sel("colorings.match")), "us"),
        "colorings.canonical_form.hits": (cache_delta[0], "count"),
        "colorings.canonical_form.misses": (cache_delta[1], "count"),
    }
    census = workload.census()
    for shape in ("4x6", "5x5", "5x6"):
        # set-up spans count too: simulate-exotic builds its catalog there
        tagged = lambda name: [s for s in tracer.select(name, tag=shape)  # noqa: E731
                               if s["op"] in (op, "setup")]
        size, exotic = census.get(shape, (0, 0))
        m[f"colorings.enumerate_axial_s.{shape}"] = (
            duration(tagged("colorings.enumerate_axial")), "s")
        m[f"colorings.canonical_form_ms.{shape}"] = (
            duration(tagged("colorings.canonical_form")) * 1e3, "ms")
        m[f"colorings.isotropy_ms.{shape}"] = (
            duration(tagged("colorings.isotropy_subgroup")) * 1e3, "ms")
        m[f"colorings.catalog_size.{shape}"] = (size, "count")
        m[f"colorings.exotic.{shape}"] = (exotic, "count")
    exp = [s for name in ("experiments.run_scenario", "experiments.sweep_lambda",
                          "experiments.catalog_rows") for s in sel(name)]
    io = sel("experiments.trajectory_to_csv") + sel("experiments.write_heatmap_svg")
    m["experiments.self_s"] = (sum(tracer.self_time(s) for s in exp), "s")
    m["experiments.io_s"] = (duration(io), "s")
    m["experiments.bytes_written"] = (workload.bytes_written, "bytes")
    m["cli.self_s"] = (sum(tracer.self_time(s) for s in sel("cli.main")), "s")
    m["trace.overhead_frac"] = (wall_traced / wall_plain - 1.0, "ratio")
    return m


def plain_run(args, workload, info):
    """End-to-end metrics, tracing off: repeat the workload's call while
    the next one is expected to end within args.seconds (at least once)."""
    from workloads import MAX_CALLS
    setup_s = setup_seconds(args)
    workload.prepare()
    walls, steps, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    for k in range(MAX_CALLS):
        wall, a, f = timed_call(workload, k)
        walls.append(wall)
        steps.append(integrate_steps(workload.tracer.kept.get("integrate.integrate", [])))
        attempted, failed = attempted + a, failed + f
        if time.perf_counter() - start + max(walls) > args.seconds:
            break
    info["walls"], info["steps"] = walls, steps
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                        "MB"),
        "passed_frac": ((attempted - failed) / attempted, "ratio"),
    }
    return metrics, attempted, failed


def traced_run(args, tracer, workload):
    """Per-layer metrics: call 0 untraced, then the same call traced; the
    set-up is traced too.  Spans are written to perfbench/out/."""
    from workloads import canonical_form
    tracer.enabled, tracer.op = True, "setup"
    workload.prepare()
    tracer.enabled = False
    wall_plain, attempted, failed = timed_call(workload, 0)
    tracer.enabled, tracer.op = True, 0
    before = canonical_form.cache_info()
    wall_traced, a, f = timed_call(workload, 0)
    after = canonical_form.cache_info()
    tracer.enabled = False
    metrics = layer_metrics(tracer, workload, 0, tracer.kept.get("integrate.integrate", []),
                            (after.hits - before.hits, after.misses - before.misses),
                            wall_traced, wall_plain)
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.json")
    return metrics, attempted + a, failed + f


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "indecision" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'indecision'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import Tracer
    from workloads import WORKLOADS, patch_targets
    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    info = provenance(args)
    OUT.mkdir(exist_ok=True)
    work_dir = OUT / f"work-{os.getpid()}"
    tracer = Tracer(enabled=False)
    workload = WORKLOADS[args.workload](args.seed, str(work_dir), tracer)
    try:
        with tracer.patched(patch_targets()):
            if args.trace:
                metrics, attempted, failed = traced_run(args, tracer, workload)
            else:
                metrics, attempted, failed = plain_run(args, workload, info)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump({"provenance": info, "result": result}, fh, indent=2)
        fh.write("\n")
    print(json.dumps({"provenance": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
