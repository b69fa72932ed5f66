#!/usr/bin/env python
"""Real shared-memory parallel execution of the stencil task graphs.

Everything else in this repo *models* time; this example measures it.
The same CA task graph is executed on real worker threads
(``backend="threads"``) at several worker counts, verified bit-exact
against the reference solver, and compared against the simulator's
prediction for the identical graph.  Also shows the executor itself:
a run is a call that computes on the calling thread (another thread may
``cancel()`` it) and, with ``trace=True``, records where and when any
one task ran.
"""

import os

import numpy as np

import repro
from repro.analysis.tables import format_table
from repro.core.base_parsec import build_base_graph
from repro.exec import ThreadedExecutor
from repro.exec.compare import compare_backends, format_comparison


def main() -> None:
    problem = repro.JacobiProblem(n=256, iterations=12, init=0.0,
                                  bc=repro.DirichletBC(1.0))
    reference = problem.reference_solution()
    cores = os.cpu_count() or 1

    # -- measured strong scaling ---------------------------------------
    rows = []
    serial = None
    for jobs in (1, 2, 4):
        result = repro.run(problem, impl="ca-parsec", machine=repro.nacl(1),
                           tile=64, steps=4, backend="threads", jobs=jobs)
        assert np.array_equal(result.grid, reference), "numerics diverged!"
        serial = serial or result.elapsed
        rows.append((jobs, f"{result.elapsed * 1e3:.1f}",
                     f"{serial / result.elapsed:.2f}x",
                     f"{result.occupancy():.2f}"))
    print(format_table(
        ("jobs", "wall ms", "speedup", "occupancy"), rows,
        title=f"ca-parsec on real threads (host has {cores} cores), "
              "bit-exact vs reference",
    ))

    # -- simulated vs measured ------------------------------------------
    comp = compare_backends(problem, impl="ca-parsec", jobs=min(4, cores),
                            tile=64, steps=4)
    print()
    print(format_comparison([comp], title="simulator prediction vs this host"))

    # -- the executor, directly ----------------------------------------
    # run() makes the calling thread worker 0, beside jobs - 1 worker
    # threads, and returns the report; executor.cancel() from another
    # thread would make it raise RunCancelled instead.
    built = build_base_graph(problem, repro.nacl(1), tile=64)
    report = ThreadedExecutor(built.graph, jobs=2, trace=True).run()
    # Every task leaves one span in the trace, addressed by its key: on
    # the real backends a task is one node block's tiles of one kind.
    last = ("base", 0, "interior", problem.iterations - 1)
    span = next(s for s in report.trace.spans if s.task_id == last)
    print(f"\nnode 0's interior tiles finished their last iteration on worker "
          f"{span.worker} at t={span.end * 1e3:.2f} ms")
    print(f"run complete: {report.tasks_run} tasks, "
          f"{report.elapsed * 1e3:.1f} ms wall, "
          f"worker occupancy {report.worker_occupancy:.2f}")


if __name__ == "__main__":
    main()
