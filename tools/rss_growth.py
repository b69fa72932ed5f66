#!/usr/bin/env python
"""Peak-RSS growth of one solve, in grids.

    PYTHONPATH=src python tools/rss_growth.py threads|reference|processes

Imports numpy and the solver (which loads the compiled kernel), reads
``ru_maxrss``, then runs one solve of an :data:`N` x :data:`N` grid
over :data:`SWEEPS` sweeps: ``threads`` is ``run()`` on the ``threads``
backend with ``jobs=2`` (tile 256: row slabs for both workers),
``reference`` is ``JacobiProblem.reference_solution()``.  Prints how
far the peak resident set grew over the post-import baseline, in MiB
and in grids of ``N^2`` doubles, and exits 1 above :data:`MAX_GRIDS`.
Every solve sweeps one array in place, so the growth is about one grid;
a second grid-sized array would read about two.

``processes`` measures a node process instead (``RUSAGE_CHILDREN``: the
largest reaped child): the same solve on ``procs=2``, against the node
process of a tiny one-sweep solve run just before it.  Each node sweeps
its half of the result grid, a shared mapping, and touches nothing
else block-sized, so it grows by about half a grid (a row of its block
shares pages with the other node's); a private buffer of its block
would add another half.  It exits 1 above :data:`MAX_NODE_GRIDS`.
Run each kind in a fresh interpreter: the peak never comes down.
"""

from __future__ import annotations

import argparse
import resource
import sys

N = 2048
SWEEPS = 4
MAX_GRIDS = 1.25
MAX_NODE_GRIDS = 0.75


def peak_mib(who: int = resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("threads", "reference", "processes"))
    args = parser.parse_args(argv)

    from repro.core.runner import run
    from repro.distgrid.boundary import DirichletBC
    from repro.stencil.problem import JacobiProblem

    problem = JacobiProblem(n=N, iterations=SWEEPS, init=0.5, bc=DirichletBC(1.5))
    who, limit = resource.RUSAGE_SELF, MAX_GRIDS
    if args.kind == "processes":
        who, limit = resource.RUSAGE_CHILDREN, MAX_NODE_GRIDS
        tiny = JacobiProblem(n=64, iterations=1, init=0.5, bc=DirichletBC(1.5))
        run(tiny, impl="base-parsec", tile=32, backend="processes", procs=2)
    baseline = peak_mib(who)
    if args.kind == "threads":
        grid = run(problem, impl="base-parsec", tile=256, backend="threads", jobs=2).grid
    elif args.kind == "processes":
        grid = run(problem, impl="base-parsec", tile=256, backend="processes", procs=2).grid
    else:
        grid = problem.reference_solution()
    growth = peak_mib(who) - baseline
    grids = growth / (grid.nbytes / 2**20)
    print(f"{args.kind}: {N}^2 x {SWEEPS} sweeps, peak RSS {baseline:.1f} -> "
          f"{baseline + growth:.1f} MiB: +{growth:.1f} MiB = {grids:.2f} grids "
          f"(limit {limit})")
    return int(grids > limit)


if __name__ == "__main__":
    sys.exit(main())
