"""Do two threads help the bare kernel, and the task runtime?  (The
`jobs > 1` tables of docs/runtime-guide.md.)

    PYTHONPATH=src python benchmarks/gil_scaling.py

First `jacobi_update_region` over a static half/half partition of
private tiles -- `kernel_large`'s arithmetic (2048^2 cells, 16 sweeps)
with no runtime in the way at all: no graph, no queue, no store, no
shared data -- on 1 and on 2 threads, for tiles of 128 / 256 / 512 cells
a side, with the kernel's row bands (`BAND_CELLS`) and without.  Best of
five, seconds.

Then the task runtime on the same shape: `run()` entry to grid on
`threads` with `jobs=1` and `jobs=2` (the node-block graph: 8 row slabs
per sweep), the reference loop beside them, the three interleaved so
host drift hits all of them.  Best and median of five, seconds.  Then
the same on 512^2 on the modelled `nacl(4)`: `threads` runs it as one
node block of 2^18 cells, below 2 x `SLAB_CELLS`, so one task a sweep
and nothing for a second worker to share.
"""

from __future__ import annotations

import statistics
import threading
import time

import numpy as np

from repro.core.runner import run
from repro.distgrid.boundary import DirichletBC
from repro.machine.machine import nacl
from repro.stencil import kernels
from repro.stencil.kernels import StencilWeights, jacobi_update_region
from repro.stencil.problem import JacobiProblem

CELLS, SWEEPS, REPS = 2048 * 2048, 16, 5


def solve(tile: int, threads: int) -> float:
    tiles = [(np.random.default_rng(k).random((tile + 2, tile + 2)), np.empty((tile, tile)))
             for k in range(CELLS // tile**2)]
    weights, inner = StencilWeights(), slice(1, tile + 1)

    def work(mine) -> None:
        for _ in range(SWEEPS):
            for ext, out in mine:
                jacobi_update_region(ext, weights, inner, inner, out=out)

    workers = [threading.Thread(target=work, args=(tiles[k::threads],)) for k in range(threads)]
    t0 = time.perf_counter()
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return time.perf_counter() - t0


def bare_kernel() -> None:
    banded = kernels.BAND_CELLS
    print(f"{'tile':>6} {'bands':>9} {'1 thread':>10} {'2 threads':>10} {'2 / 1':>7}")
    for label, cells in (("banded", banded), ("unbanded", 1 << 62)):
        kernels.BAND_CELLS = cells
        for tile in (128, 256, 512):
            one, two = (min(solve(tile, n) for _ in range(REPS)) for n in (1, 2))
            print(f"{tile:>6} {label:>9} {one:>10.3f} {two:>10.3f} {two / one:>7.2f}")
    kernels.BAND_CELLS = banded


def runtime(label: str, problem: JacobiProblem, nodes: int, tile: int) -> None:
    """The reference loop, then `run()` on `threads` with one and with
    two workers, on the modelled `nacl(nodes)`."""
    truth = problem.reference_solution()

    def threads(jobs: int):
        return lambda: run(problem, nacl(nodes), impl="base-parsec", backend="threads",
                           jobs=jobs, tile=tile).grid

    rows = {"reference": problem.reference_solution, "jobs=1": threads(1), "jobs=2": threads(2)}
    for solve_once in rows.values():  # warm: templates, page cache, allocator
        assert np.array_equal(solve_once(), truth)
    seconds: dict[str, list[float]] = {name: [] for name in rows}
    for _ in range(REPS):
        for name, solve_once in rows.items():
            t0 = time.perf_counter()
            grid = solve_once()
            seconds[name].append(time.perf_counter() - t0)
            assert np.array_equal(grid, truth), name
    print(f"\n{label:>12} {'best':>8} {'median':>8}")
    for name, times in seconds.items():
        print(f"{name:>12} {min(times):>8.3f} {statistics.median(times):>8.3f}")
    one, two = (min(seconds[name]) for name in ("jobs=1", "jobs=2"))
    print(f"{'2 / 1':>12} {two / one:>8.2f}")


if __name__ == "__main__":
    bare_kernel()
    # kernel_large: 2048^2, 256^2 tiles, 16 sweeps, one node (8 row slabs a sweep)
    runtime("kernel_large", JacobiProblem(n=2048, iterations=SWEEPS, init=0.5,
                                          bc=DirichletBC(1.5)), 1, 256)
    # 512^2 on the modelled nacl(4): one node block of 2^18 cells, one task a sweep
    runtime("512^2 nacl(4)", JacobiProblem(n=512, iterations=SWEEPS, init=0.5,
                                           bc=DirichletBC(1.5)), 4, 64)
