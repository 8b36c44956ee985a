"""Compare the exact layer's outputs of two source trees, item by item.

Each tree runs in its own interpreter and prints one fingerprint per item;
the parent process compares the two sets and names every mismatch.  The
items are:

* catalog/MxN: the SHA-256 of `enumerate_axial(M x N).export_json()` for
  every shape with M, N >= 2 and at most MAX_AXIAL_CELLS cells;
* entry/MxN#k: each entry's case, coloring, split and rho, and its exact
  `axial_values` at amplitude 5/3, which the export leaves out, so a
  change of the value line's scale shows as well as one of representative;
* for every entry of those catalogs, a random conjugate of each entry, a
  seeded random set of colorings (1 to m * n colors, up to 6 x 6), the
  doubly sorted 4 x q two-color Latin blocks of the catalog's
  `_two_color_latin_blocks` for q = 2..BLOCK_COLUMNS (so the pair counts
  are checked on Orbital and Exotic rectangles alike), and a random
  conjugate of each: `canonical_form`, the whole `isotropy_subgroup`
  report (order, generator list in order, orbits, verdict),
  `balance_witness`, `dim_Vd_intersection`,
  `dissensus_intersection_basis`, `tiling_decomposition` (blocks,
  conjugation and groups, or the witness of its NotBalancedError) and
  `column_pair_multiplicities` (the pairs sorted, or the error message);
* for every catalog entry and its conjugate, `synthesize_stable_admissible`
  at the generic levels `indecision synthesize` uses: coefficients, levels
  and report;
* with --simulate, `indecision simulate` on every built-in scenario: the
  standard output, each per-seed JSON run report field by field, and the
  SHA-256 of every other file written (CSV, SVG and the summary).  The
  reports whose spectral_abscissa differs are counted, with the largest
  |difference|, as a report, not a mismatch, as with --outcomes below;
  every other field must be equal.

With --outcomes, the items are instead the outcomes of seeded runs, for a
change to the integrator, which moves the bits of every final but should
move no outcome.  The runs are the four built-in scenarios (their 20
seeds), dissensus-exotic-4x6 on seeds 0-39, and consensus-4x6 on seeds
0-39 at each lambda of SWEEP_LAMBDAS, all integrated as one batch per
scenario and lambda, and the last again seed by seed through `integrate`,
the path `sweep_lambda` takes.  Per run, the stop reason, the
coloring its final quantizes to (at the scenario's quantize_tol), the
pattern class, the axial catalog index and verdict must be equal, and the
finals may differ by at most FINAL_TOL in any entry; the largest
difference is reported.  The runs whose accepted steps (n_steps) or field
evaluations (n_evals) differ are counted, with the largest difference of
each; that is a report, not a mismatch, since a change of tolerance moves
these counts legitimately.  So are the runs whose spectral_abscissa
differs, with the largest |difference|: a change to how the Jacobian is
computed moves its eigenvalues by rounding.  Each trajectory is digested
in two parts, the SHA-256 of the time and state bits of every sample
before the last, and that of the last sample (the final): the runs whose
earlier samples differ and the runs whose final differs in any bit are
counted apart, so a change to the Newton finish alone, which replaces the
last sample, can show that no earlier sample moved, and a change meant to
keep every bit must report both as 0.

The exit status is 0 when every item matches and 1 otherwise.

Usage:
    python tools/exact_identity.py [--random 1500] [--seed 0] [--simulate] \\
        parent=/path/to/parent/src change=src
    python tools/exact_identity.py --outcomes parent=/path/to/parent/src change=src
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import random
import sys
import tempfile
from fractions import Fraction


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def random_coloring(rng, Coloring):
    m, n = rng.randint(1, 6), rng.randint(1, 6)
    k = rng.randint(1, m * n)
    ids = [rng.randrange(k) for _ in range(m * n)]
    dense = {}
    return Coloring(tuple(tuple(dense.setdefault(x, len(dense)) for x in ids[i * n:(i + 1) * n])
                          for i in range(m)))


def conjugate(rng, c):
    sigma, tau = list(range(c.m)), list(range(c.n))
    rng.shuffle(sigma)
    rng.shuffle(tau)
    return type(c).from_rows([[c.cells[s][t] for t in tau] for s in sigma]).relabeled()


BLOCK_COLUMNS = 16   # the 4 x q Latin blocks are subjects for q = 2..BLOCK_COLUMNS


def exact_items(n_random: int, seed: int) -> dict:
    from indecision import Coloring, NetworkShape
    from indecision import colorings as C

    rng = random.Random(seed)
    items, subjects = {}, []
    guard = C.MAX_AXIAL_CELLS
    for m in range(2, guard // 2 + 1):
        for n in range(2, guard // m + 1):
            cat = C.enumerate_axial(NetworkShape(m, n))
            items[f"catalog/{m}x{n}"] = hashlib.sha256(cat.export_json().encode()).hexdigest()
            for k, e in enumerate(cat):
                items[f"entry/{m}x{n}#{k}"] = digest((e.case, e.coloring, e.split, e.rho,
                                                      C.axial_values(e, Fraction(5, 3))))
                for name, c in ((f"{m}x{n}#{k}", e.coloring),
                                (f"{m}x{n}#{k}~", conjugate(rng, e.coloring))):
                    subjects.append((name, c))
                    items[f"synthesis/{name}"] = digest(synthesis(C, c))
    for k in range(n_random):
        c = random_coloring(rng, Coloring)
        subjects += [(f"random#{k}", c), (f"random#{k}~", conjugate(rng, c))]
    for q in range(2, BLOCK_COLUMNS + 1):
        for k, block in enumerate(C._two_color_latin_blocks(4, q)):
            c = Coloring.from_rows(block).relabeled()
            subjects += [(f"latin4x{q}#{k}", c), (f"latin4x{q}#{k}~", conjugate(rng, c))]
    for name, c in subjects:
        rep = C.isotropy_subgroup(c)
        items[f"coloring/{name}"] = c.to_text().replace("\n", "/")
        items[f"canonical_form/{name}"] = digest(C.canonical_form(c).cells)
        items[f"isotropy/{name}"] = digest((rep.group_order, rep.generators,
                                            [sorted(o) for o in rep.orbit_partition],
                                            rep.verdict))
        items[f"balance_witness/{name}"] = digest(C.balance_witness(c))
        items[f"dim_Vd/{name}"] = C.dim_Vd_intersection(c)
        items[f"basis/{name}"] = digest(C.dissensus_intersection_basis(c))
        try:
            t = C.tiling_decomposition(c)
            tiling = (t.blocks, t.conjugation, t.row_groups, t.col_groups)
        except C.NotBalancedError as err:
            tiling = err.witness
        items[f"tiling/{name}"] = digest(tiling)
        try:
            pairs = sorted((sorted(map(sorted, pair)), count)
                           for pair, count in C.column_pair_multiplicities(c).items())
        except ValueError as err:
            pairs = str(err)
        items[f"pairs/{name}"] = digest(pairs)
    return items


def synthesis(C, c):
    """The synthesized map and report at the levels of `indecision
    synthesize`: distinct values centred on zero, one per color."""
    K = c.num_colors
    levels = [k - (K - 1) / 2 for k in range(K)]
    fmap, report = C.synthesize_stable_admissible(c, [[levels[x] for x in row]
                                                      for row in c.cells])
    return fmap.coeffs, fmap.levels, report


def simulate_items() -> dict:
    from indecision import cli, experiments

    items = {}
    for name in sorted(experiments.BUILTIN_SCENARIOS):
        with tempfile.TemporaryDirectory() as out:
            stdout = io.StringIO()
            with contextlib.redirect_stdout(stdout):
                cli.main(["simulate", "--scenario", name, "--out-dir", out])
            items[f"simulate/{name}/stdout"] = digest(stdout.getvalue().replace(out, "<out>"))
            for root, _, files in os.walk(out):
                for f in files:
                    path = os.path.join(root, f)
                    with open(path, "rb") as fh:
                        data = fh.read().replace(out.encode(), b"<out>")
                    rel = os.path.relpath(path, out)
                    if f.endswith(".json") and not f.endswith("_summary.json"):
                        items[f"report/{name}/{rel}"] = json.loads(data)
                    else:
                        items[f"simulate/{name}/{rel}"] = hashlib.sha256(data).hexdigest()[:16]
    return items


SWEEP_LAMBDAS = (0.5, 0.9, 0.97, 1.03, 1.1, 1.5)
FINAL_TOL = 1e-6


def trajectory_digests(traj) -> list[str]:
    """The digests of the samples before the last and of the last."""
    return [hashlib.sha256(repr(times).encode() + b"".join(Z.tobytes() for Z in states))
            .hexdigest()[:16]
            for times, states in ((traj.times[:-1], traj.states[:-1]),
                                  (traj.times[-1:], traj.states[-1:]))]


def outcome_items() -> dict:
    """Per run, [(stop reason, coloring, class, axial index, verdict),
    (n_steps, n_evals), final, spectral_abscissa, trajectory digests], keyed
    by scenario, lambda, path (batch or alone) and seed."""
    from indecision import (AmbiguousQuantizationError, classify_orbital_exotic,
                            classify_state, enumerate_axial, get_scenario, integrate,
                            integrate_batch, quantize_to_coloring, random_near_origin)
    from indecision.experiments import BUILTIN_SCENARIOS

    runs = [(get_scenario(name), None, "batch") for name in sorted(BUILTIN_SCENARIOS)]
    runs.append((get_scenario("dissensus-exotic-4x6").replace(seeds=tuple(range(40))), None,
                 "batch"))
    sweep = get_scenario("consensus-4x6").replace(seeds=tuple(range(40)))
    runs += [(sweep, lam, path) for path in ("batch", "alone") for lam in SWEEP_LAMBDAS]
    items = {}
    for sc, lam, path in runs:
        catalog = enumerate_axial(sc.shape)
        starts = [random_near_origin(sc.shape, sc.radius, seed) for seed in sc.seeds]
        cfg, icfg = sc.model_config(lam), sc.integrator_config(lam)
        if path == "batch":
            results = integrate_batch(starts, cfg, icfg)
        else:
            results = [integrate(Z0, cfg, icfg) for Z0 in starts]
        for seed, (traj, res) in zip(sc.seeds, results):
            coloring = cls = index = verdict = None
            if res.converged:
                try:
                    c = quantize_to_coloring(res.final, sc.quantize_tol)
                except AmbiguousQuantizationError:
                    pass
                else:
                    coloring = c.to_text().replace("\n", "/")
                    cls = classify_state(c, res.final).pattern_class.value
                    entry = catalog.match(c)
                    if entry is not None:
                        index = catalog.index_of(entry)
                        verdict = classify_orbital_exotic(entry.coloring)
            key = f"{sc.name}/lambda={'default' if lam is None else lam}/{path}/seed{seed}"
            items[key] = [[res.stop_reason, coloring, cls, index, verdict],
                          [res.n_steps, res.n_evals], res.final.tolist(),
                          res.spectral_abscissa, trajectory_digests(traj)]
    return items


def count_difference(tally, x, y):
    """Add a difference between x and y to tally, [runs, largest |x - y|]."""
    tally[0] += x != y
    if x != y:   # None (diverged) against a number is an infinite difference
        tally[1] = max(tally[1], math.inf if None in (x, y) else abs(x - y))


def compare_outcomes(found) -> int:
    """Print every run whose outcome differs and a summary, with the runs
    whose step and evaluation counts, spectral abscissa, samples before
    the last and final bits differ; the number of mismatches."""
    (a, items_a), (b, items_b) = found.items()
    mismatches, largest, digests = 0, 0.0, [0, 0]   # runs: earlier samples, final bits
    # runs differing, largest difference
    counts = {"n_steps": [0, 0], "n_evals": [0, 0], "spectral_abscissa": [0, 0.0]}
    for key in sorted(set(items_a) | set(items_b)):
        if key not in items_a or key not in items_b:
            mismatches += 1
            print(f"MISMATCH {key}: only in {a if key in items_a else b}")
            continue
        (head_a, counts_a, final_a, abscissa_a, digests_a), \
            (head_b, counts_b, final_b, abscissa_b, digests_b) = items_a[key], items_b[key]
        for i, (x, y) in enumerate(zip(digests_a, digests_b)):
            digests[i] += x != y
        diff = max(abs(x - y) for row_a, row_b in zip(final_a, final_b)
                   for x, y in zip(row_a, row_b))
        largest = max(largest, diff)
        if head_a != head_b or not diff <= FINAL_TOL:
            mismatches += 1
            print(f"MISMATCH {key}: {a}={head_a} {b}={head_b} max |final diff| {diff:.3g}")
        for tally, x, y in zip(counts.values(), counts_a + [abscissa_a],
                               counts_b + [abscissa_b]):
            count_difference(tally, x, y)
    print(f"{len(items_a)} runs; largest |final diff| {largest:.3g}; {mismatches} mismatches")
    print("; ".join(f"{name} differs on {runs} runs (largest difference {most})"
                    for name, (runs, most) in counts.items())
          + f"; samples before the last differ on {digests[0]} runs"
          f"; the final differs in some bit on {digests[1]} runs")
    return mismatches


def child(args):
    if args.outcomes:
        return json.dump(outcome_items(), sys.stdout)
    items = exact_items(args.random, args.seed)
    if args.simulate:
        items.update(simulate_items())
    json.dump(items, sys.stdout)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("trees", nargs="*", help="label=path of a source tree's src directory (two)")
    ap.add_argument("--random", type=int, default=1500, help="random colorings (default 1500)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--simulate", action="store_true",
                    help="also compare `indecision simulate` on the built-in scenarios")
    ap.add_argument("--outcomes", action="store_true",
                    help="compare the outcomes of seeded runs instead (see above)")
    ap.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    if args.child:
        return child(args)
    if len(args.trees) != 2:
        ap.error("give exactly two trees, as label=path")
    from bench_l4 import run_rounds

    trees = dict(t.split("=", 1) for t in args.trees)
    found = {label: runs[0] for label, runs in run_rounds(
        __file__, trees, 1, "--random", str(args.random), "--seed", str(args.seed),
        *["--simulate"] * args.simulate, *["--outcomes"] * args.outcomes).items()}
    if args.outcomes:
        return 1 if compare_outcomes(found) else 0
    (a, items_a), (b, items_b) = found.items()
    mismatches, abscissa = 0, [0, 0.0]
    for key in sorted(set(items_a) | set(items_b)):
        if key.startswith("report/") and key in items_a and key in items_b:
            rep_a, rep_b = items_a[key], items_b[key]
            count_difference(abscissa, rep_a.pop("spectral_abscissa", None),
                             rep_b.pop("spectral_abscissa", None))
            fields = sorted(k for k in rep_a.keys() | rep_b.keys() if rep_a.get(k) != rep_b.get(k))
            if fields:
                mismatches += 1
                print(f"MISMATCH {key}: fields {', '.join(fields)} differ")
        elif items_a.get(key) != items_b.get(key):
            mismatches += 1
            subject = items_a.get("coloring/" + key.split("/", 1)[-1], "")
            print(f"MISMATCH {key}: {a}={items_a.get(key)} {b}={items_b.get(key)} {subject}")
    kinds = {}
    for key in items_a:
        kind = key.split("/", 1)[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    print(f"{len(items_a)} items ({', '.join(f'{k} {v}' for k, v in sorted(kinds.items()))}); "
          f"{mismatches} mismatches")
    if args.simulate:
        print(f"spectral_abscissa differs on {abscissa[0]} reports "
              f"(largest difference {abscissa[1]})")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
