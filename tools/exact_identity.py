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
  seeded random set of colorings (1 to m * n colors, up to 6 x 6) and a
  random conjugate of each: `canonical_form`, the whole `isotropy_subgroup`
  report (order, generator list in order, orbits, verdict),
  `balance_witness`, `dim_Vd_intersection` and
  `dissensus_intersection_basis`;
* with --simulate, `indecision simulate` on every built-in scenario: the
  standard output and the SHA-256 of every file written.

With --outcomes, the items are instead the outcomes of seeded runs, for a
change to the integrator, which moves the bits of every final but should
move no outcome.  The runs are the four built-in scenarios (their 20
seeds), dissensus-exotic-4x6 on seeds 0-39, and consensus-4x6 on seeds
0-39 at each lambda of SWEEP_LAMBDAS.  Per run, the stop reason, the
coloring its final quantizes to (at the scenario's quantize_tol), the
pattern class, the axial catalog index and verdict must be equal, and the
finals may differ by at most FINAL_TOL in any entry; the largest
difference is reported.

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
import os
import random
import subprocess
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
                subjects.append((f"{m}x{n}#{k}", e.coloring))
                subjects.append((f"{m}x{n}#{k}~", conjugate(rng, e.coloring)))
    for k in range(n_random):
        c = random_coloring(rng, Coloring)
        subjects += [(f"random#{k}", c), (f"random#{k}~", conjugate(rng, c))]
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
    return items


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
                    items[f"simulate/{name}/{os.path.relpath(path, out)}"] = \
                        hashlib.sha256(data).hexdigest()[:16]
    return items


SWEEP_LAMBDAS = (0.5, 0.9, 0.97, 1.03, 1.1, 1.5)
FINAL_TOL = 1e-6


def outcome_items() -> dict:
    """Per run, (stop reason, coloring, class, axial index, verdict,
    final), keyed by scenario, lambda and seed."""
    from indecision import (AmbiguousQuantizationError, classify_orbital_exotic,
                            classify_state, enumerate_axial, get_scenario, integrate_batch,
                            quantize_to_coloring, random_near_origin)
    from indecision.experiments import BUILTIN_SCENARIOS

    runs = [(get_scenario(name), None) for name in sorted(BUILTIN_SCENARIOS)]
    runs.append((get_scenario("dissensus-exotic-4x6").replace(seeds=tuple(range(40))), None))
    sweep = get_scenario("consensus-4x6").replace(seeds=tuple(range(40)))
    runs += [(sweep, lam) for lam in SWEEP_LAMBDAS]
    items = {}
    for sc, lam in runs:
        catalog = enumerate_axial(sc.shape)
        starts = [random_near_origin(sc.shape, sc.radius, seed) for seed in sc.seeds]
        results = integrate_batch(starts, sc.model_config(lam), sc.integrator_config(lam))
        for seed, (_, res) in zip(sc.seeds, results):
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
            key = f"{sc.name}/lambda={'default' if lam is None else lam}/seed{seed}"
            items[key] = [res.stop_reason, coloring, cls, index, verdict, res.final.tolist()]
    return items


def compare_outcomes(found) -> int:
    """Print every run whose outcome differs and a summary; the number of
    mismatches."""
    (a, items_a), (b, items_b) = found.items()
    mismatches, largest = 0, 0.0
    for key in sorted(set(items_a) | set(items_b)):
        if key not in items_a or key not in items_b:
            mismatches += 1
            print(f"MISMATCH {key}: only in {a if key in items_a else b}")
            continue
        (*head_a, final_a), (*head_b, final_b) = items_a[key], items_b[key]
        diff = max(abs(x - y) for row_a, row_b in zip(final_a, final_b)
                   for x, y in zip(row_a, row_b))
        largest = max(largest, diff)
        if head_a != head_b or not diff <= FINAL_TOL:
            mismatches += 1
            print(f"MISMATCH {key}: {a}={head_a} {b}={head_b} max |final diff| {diff:.3g}")
    print(f"{len(items_a)} runs; largest |final diff| {largest:.3g}; {mismatches} mismatches")
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
    trees = dict(t.split("=", 1) for t in args.trees)
    found = {}
    for label, src in trees.items():
        env = {**os.environ, "PYTHONPATH": os.path.abspath(src)}
        cmd = [sys.executable, __file__, "--child", "--random", str(args.random),
               "--seed", str(args.seed)] + ["--simulate"] * args.simulate \
            + ["--outcomes"] * args.outcomes
        found[label] = json.loads(subprocess.run(cmd, env=env, capture_output=True, text=True,
                                                 check=True).stdout)
    if args.outcomes:
        return 1 if compare_outcomes(found) else 0
    (a, items_a), (b, items_b) = found.items()
    mismatches = 0
    for key in sorted(set(items_a) | set(items_b)):
        if items_a.get(key) != items_b.get(key):
            mismatches += 1
            subject = items_a.get("coloring/" + key.split("/", 1)[-1], "")
            print(f"MISMATCH {key}: {a}={items_a.get(key)} {b}={items_b.get(key)} {subject}")
    kinds = {}
    for key in items_a:
        kind = key.split("/", 1)[0]
        kinds[kind] = kinds.get(kind, 0) + 1
    print(f"{len(items_a)} items ({', '.join(f'{k} {v}' for k, v in sorted(kinds.items()))}); "
          f"{mismatches} mismatches")
    return 1 if mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
