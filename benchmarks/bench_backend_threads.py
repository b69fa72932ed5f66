"""Real shared-memory execution: base vs CA wall-clock over worker
threads, and how well the simulator predicted it.

Unlike every other bench in this suite, the interesting number here
*is* the wall time: the task graphs run for real on this host through
``repro.exec``.  Three findings are reported:

* measured wall time of base and CA over ``jobs`` in {1, 2, 4} -- a
  table, not a bar: how much a second thread gains moves with the host
  from session to session (the bare kernel's 2 threads / 1 read
  0.94-1.01 in one session and 0.50-0.79 in another,
  ``docs/runtime-guide.md``, *Does a second thread help?*), and
  ``threads`` runs these small grids as one node block of one task a
  sweep, so ``jobs`` defaults to 1 and multi-core is ``procs``;
* the base-vs-CA comparison on real hardware, which on ``threads`` is
  a control: one address space runs the grid as one node block, so base
  and CA execute the same one-buffer sweep (no halo, no redundant
  cell).  CA's saving is a distributed-memory effect, measured on
  ``processes`` (``bench_backend_processes.py``);
* simulated-vs-measured occupancy and GFLOP/s side by side
  (``repro.exec.compare``), closing the loop on the model.

The one assertion on the timings holds on any host: no worker count is
pathologically (> 3x) slower than one worker.
"""

from __future__ import annotations

import os

from repro.analysis.tables import format_table
from repro.core.runner import run
from repro.exec.compare import compare_backends, format_comparison
from repro.machine.machine import nacl
from repro.stencil.problem import JacobiProblem

FULL = bool(os.environ.get("REPRO_FULL"))
N = 1536 if FULL else 384
TILE = N // 4  # 16 tiles: enough width for 4 workers, fat enough kernels
ITERATIONS = 20 if FULL else 8
STEPS = 4
JOBS = (1, 2, 4)
HOST_CORES = os.cpu_count() or 1


def _measure(problem: JacobiProblem, impl: str, jobs: int, **kwargs) -> float:
    """Best-of-3 wall seconds (standard wall-clock practice)."""
    return min(
        run(problem, impl=impl, machine=nacl(1), backend="threads", jobs=jobs,
            **kwargs).elapsed
        for _ in range(3)
    )


def test_backend_threads_speedup(once, show):
    problem = JacobiProblem(n=N, iterations=ITERATIONS)

    def sweep():
        results = {}
        for impl, kwargs in (
            ("base-parsec", {"tile": TILE}),
            ("ca-parsec", {"tile": TILE, "steps": STEPS}),
        ):
            results[impl] = {j: _measure(problem, impl, j, **kwargs) for j in JOBS}
        return results

    results = once(sweep)

    rows = []
    for impl, by_jobs in results.items():
        serial = by_jobs[JOBS[0]]
        for jobs in JOBS:
            wall = by_jobs[jobs]
            rows.append((
                impl, jobs, f"{wall * 1e3:.1f}",
                f"{serial / wall:.2f}x",
                f"{100 * serial / wall / jobs:.0f}%",
                f"{problem.total_flops / wall / 1e9:.2f}",
            ))
    show(format_table(
        ("impl", "jobs", "wall ms", "speedup", "efficiency", "GFLOP/s"),
        rows,
        title=f"threads backend, {N}^2 x {ITERATIONS} iters, tile {TILE}, "
              f"host has {HOST_CORES} cores",
    ))

    ca_vs_base = results["base-parsec"][4] / results["ca-parsec"][4]
    show(f"CA vs base at jobs=4 (real hardware): {ca_vs_base:.2f}x")

    # Sanity that holds on any host: every configuration completed and
    # adding workers never catastrophically regresses (>3x slower).
    for impl, by_jobs in results.items():
        for jobs in JOBS:
            assert by_jobs[jobs] > 0
            assert by_jobs[jobs] < 3 * by_jobs[1] + 0.05, (
                f"{impl} at jobs={jobs} pathologically slower than serial"
            )


def test_backend_threads_vs_simulator(once, show):
    """Predicted vs measured, per implementation."""
    problem = JacobiProblem(n=N // 2, iterations=ITERATIONS)
    jobs = min(4, HOST_CORES)

    def measure():
        return [
            compare_backends(problem, impl=impl, machine=nacl(1), jobs=jobs, **kw)
            for impl, kw in (
                ("base-parsec", {"tile": N // 8}),
                ("ca-parsec", {"tile": N // 8, "steps": STEPS}),
            )
        ]

    comparisons = once(measure)
    show(format_comparison(
        comparisons,
        title=f"simulator (NaCL node model) vs this host, jobs={jobs}",
    ))
    for comp in comparisons:
        # The model cannot be expected to know this host's clock, but
        # both sides must produce finite, nonzero performance and
        # identical numerics.
        assert comp.predicted_gflops > 0 and comp.achieved_gflops > 0
        assert 0 <= comp.measured_occupancy <= 1
        import numpy as np

        assert np.array_equal(comp.sim.grid, comp.real.grid)
