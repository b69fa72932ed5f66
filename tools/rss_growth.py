#!/usr/bin/env python
"""Peak-RSS growth of one solve, in grids.

    PYTHONPATH=src python tools/rss_growth.py threads|reference

Imports numpy and the solver (which loads the compiled kernel), reads
``ru_maxrss``, then runs one solve of an :data:`N` x :data:`N` grid
over :data:`SWEEPS` sweeps: ``threads`` is ``run()`` on the ``threads``
backend with ``jobs=2`` (tile 256: row slabs for both workers),
``reference`` is ``JacobiProblem.reference_solution()``.  Prints how
far the peak resident set grew over the post-import baseline, in MiB
and in grids of ``N^2`` doubles, and exits 1 above :data:`MAX_GRIDS`.
Every solve sweeps one array in place, so the growth is about one grid;
a second grid-sized array would read about two.  Run each kind in a
fresh interpreter: the peak never comes down.
"""

from __future__ import annotations

import argparse
import resource
import sys

N = 2048
SWEEPS = 4
MAX_GRIDS = 1.25


def peak_mib() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("threads", "reference"))
    args = parser.parse_args(argv)

    from repro.core.runner import run
    from repro.distgrid.boundary import DirichletBC
    from repro.stencil.problem import JacobiProblem

    problem = JacobiProblem(n=N, iterations=SWEEPS, init=0.5, bc=DirichletBC(1.5))
    baseline = peak_mib()
    if args.kind == "threads":
        grid = run(problem, impl="base-parsec", tile=256, backend="threads", jobs=2).grid
    else:
        grid = problem.reference_solution()
    growth = peak_mib() - baseline
    grids = growth / (grid.nbytes / 2**20)
    print(f"{args.kind}: {N}^2 x {SWEEPS} sweeps, peak RSS {baseline:.1f} -> "
          f"{baseline + growth:.1f} MiB: +{growth:.1f} MiB = {grids:.2f} grids "
          f"(limit {MAX_GRIDS})")
    return int(grids > MAX_GRIDS)


if __name__ == "__main__":
    sys.exit(main())
