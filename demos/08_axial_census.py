"""Axial census: how many axial patterns, and how many exotic ones, each grid has.

For every m x n grid with m, n >= 2 and at most MAX_CELLS cells (default 42,
the enumeration's cell guard), build the complete axial catalog from cold
caches and count its Exotic entries.  Each shape runs in its own worker
process, forked from a server process that has imported the package, so
the time and the peak resident set printed for it are that shape's alone
(the peak includes the pages of the interpreter and numpy that the worker
maps, not their import).  The output is a Markdown table.

Usage: python demos/08_axial_census.py [MAX_CELLS]
"""

import multiprocessing
import resource
import sys
import time

from indecision import NetworkShape, catalog_rows


def census_row(shape):
    m, n = shape
    start = time.perf_counter()
    _, rows = catalog_rows(NetworkShape(m, n))
    seconds = time.perf_counter() - start
    exotic = sum(row["verdict"] == "Exotic" for row in rows)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return m, n, len(rows), exotic, seconds, peak_mb


def main(max_cells: int):
    shapes = [(m, n) for m in range(2, max_cells // 2 + 1)
              for n in range(2, max_cells // m + 1)]
    print("| m x n | cells | axial classes | Exotic | time (s) | peak RSS (MB) |")
    print("|---|---:|---:|---:|---:|---:|")
    total = 0.0
    # a fresh worker per shape, forked from a server that has already
    # imported indecision (and numpy), so no worker pays for the import
    ctx = multiprocessing.get_context("forkserver")
    ctx.set_forkserver_preload(["indecision"])
    with ctx.Pool(1, maxtasksperchild=1) as pool:
        for m, n, size, exotic, seconds, peak_mb in pool.imap(census_row, shapes):
            total += seconds
            print(f"| {m}x{n} | {m * n} | {size} | {exotic} | {seconds:.2f} | {peak_mb:.0f} |",
                  flush=True)
    print(f"\n{len(shapes)} shapes with at most {max_cells} cells, {total:.1f} s in total")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 42)
