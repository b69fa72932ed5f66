"""Do two threads help the bare kernel, and the task runtime?  (The
`jobs > 1` tables of docs/runtime-guide.md.)

    PYTHONPATH=src python benchmarks/gil_scaling.py
    PYTHONPATH=src python benchmarks/gil_scaling.py per-cell

`per-cell` prints only the compiled kernel's cost per cell, in place
(`jacobi_update_lines`, one array) against out of place
(`jacobi_update_region` from one framed array into another, swapped
each sweep), on 256^2, 2048^2 and 4096^2 grids, with one thread and
with two (each sweeping half the rows of the same arrays), allocation
included: best of five, nanoseconds per cell and sweep.  Then, on one
thread, the `halo_*` node block's 4096 x 128 rectangle in place, in a
2 x 2 grid that keeps row stride and page kind apart: inside a 4096 x
130 array (the block and its frame, as a node's own buffer was) or a
4096 x 256 one (the result grid where every node block sweeps now),
each in an anonymous shared mapping (as the build maps the grid) and
in a private one asking for huge pages (as the node buffer was); and
out of place between two framed arrays.  These time the sweeps only:
mapping, first touch and one warm sweep run before the clock.

First `jacobi_update_region` over a static half/half partition of
private tiles -- `kernel_large`'s arithmetic (2048^2 cells, 16 sweeps)
with no runtime in the way at all: no graph, no queue, no store, no
shared data -- on 1 and on 2 threads, for tiles of 128 / 256 / 512 cells
a side, with the compiled kernel (which runs without the interpreter
lock) and with the numpy one.  Best of five, seconds.

Then the task runtime on the same shape: `run()` entry to grid on
`threads` with `jobs=1` and `jobs=2` (the node-block graph: 8 row slabs
per sweep), the reference loop beside them, the three interleaved so
host drift hits all of them.  Best and median of five, seconds.  Then
the same on 512^2 on the modelled `nacl(4)`: `threads` runs it as one
node block of 2^18 cells, below 2 x `SLAB_CELLS`, so one task a sweep
and nothing for a second worker to share.
"""

from __future__ import annotations

import mmap
import statistics
import sys
import threading
import time

import numpy as np

from repro.core.runner import run
from repro.distgrid.boundary import DirichletBC
from repro.machine.machine import nacl
from repro.stencil import kernels
from repro.stencil.kernels import StencilWeights, jacobi_update_lines, jacobi_update_region
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
    compiled = kernels._lib
    print(f"{'tile':>6} {'kernel':>9} {'1 thread':>10} {'2 threads':>10} {'2 / 1':>7}")
    for label, lib in ((kernels.active_kernel(), compiled), ("numpy", None)):
        kernels._lib = lib
        for tile in (128, 256, 512):
            one, two = (min(solve(tile, n) for _ in range(REPS)) for n in (1, 2))
            print(f"{tile:>6} {label:>9} {one:>10.3f} {two:>10.3f} {two / one:>7.2f}")
    kernels._lib = compiled


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


def sweep_cost(n: int, threads: int, in_place: bool) -> float:
    """Seconds per cell and sweep of ``threads`` workers each sweeping
    ``n // threads`` rows of one ``n^2`` grid, its arrays allocated
    inside the timing."""
    sweeps = max(2, 2**25 // (n * n))
    weights = StencilWeights()
    t0 = time.perf_counter()
    if in_place:
        grid = np.full((n, n), 0.5)
        frame = np.ones(n)

        def work(r0: int, r1: int) -> None:
            rows, cols = slice(r0, r1), slice(0, n)
            north = grid[r0 - 1] if r0 else frame
            south = grid[r1] if r1 < n else frame
            for _ in range(sweeps):
                jacobi_update_lines(grid, weights, rows, cols,
                                    (north, south, frame[: r1 - r0], frame[: r1 - r0]))
    else:
        pair = [np.full((n + 2, n + 2), 0.5), np.full((n + 2, n + 2), 0.5)]

        def work(r0: int, r1: int) -> None:
            rows, cols = slice(r0 + 1, r1 + 1), slice(1, n + 1)
            for k in range(sweeps):
                src, dst = pair[k % 2], pair[1 - k % 2]
                jacobi_update_region(src, weights, rows, cols, out=dst[rows, cols])

    bounds = [(k * n // threads, (k + 1) * n // threads) for k in range(threads)]
    workers = [threading.Thread(target=work, args=bound) for bound in bounds]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()
    return (time.perf_counter() - t0) / (n * n * sweeps)


def rect_cost(width: int | None, shared: bool = False) -> float:
    """Seconds per cell and sweep of one thread sweeping the 4096 x 128
    rectangle of a ``halo_*`` node: in place inside an array ``width``
    cells wide (its lines a frame around it), in a ``shared`` anonymous
    mapping (as the build maps the result grid) or a private one asking
    for huge pages (as a node's framed buffer was); or (``width`` None)
    out of place between two framed arrays.  The mapping, the first
    touch and one warm sweep stay outside the clock."""
    rows, cols, sweeps = 4096, 128, 64
    weights = StencilWeights()
    if width is None:
        pair = [np.full((rows + 2, cols + 2), 0.5), np.full((rows + 2, cols + 2), 0.5)]
        region = slice(1, rows + 1), slice(1, cols + 1)

        def sweep(k: int) -> None:
            jacobi_update_region(pair[k % 2], weights, *region, out=pair[1 - k % 2][region])
    else:
        memory = mmap.mmap(-1, rows * width * 8,
                           flags=mmap.MAP_SHARED if shared else mmap.MAP_PRIVATE)
        if not shared and hasattr(mmap, "MADV_HUGEPAGE"):
            memory.madvise(mmap.MADV_HUGEPAGE)
        array, frame = np.ndarray((rows, width), buffer=memory), np.ones(rows)
        array[...] = 0.5
        lines = (frame[:cols], frame[:cols], frame, frame)

        def sweep(k: int) -> None:
            jacobi_update_lines(array, weights, slice(0, rows), slice(0, cols), lines)
    sweep(0)
    t0 = time.perf_counter()
    for k in range(1, sweeps + 1):
        sweep(k)
    return (time.perf_counter() - t0) / (rows * cols * sweeps)


def per_cell() -> None:
    print(f"{'grid':>6} {'threads':>8} {'out of place':>13} {'in place':>9}  (ns a cell)")
    for n in (256, 2048, 4096):
        for threads in (1, 2):
            out, into = (min(sweep_cost(n, threads, in_place) for _ in range(REPS)) * 1e9
                         for in_place in (False, True))
            print(f"{n:>5}² {threads:>8} {out:>13.2f} {into:>9.2f}")
    print("\n4096 x 128 rectangle, one thread, in place (ns a cell)")
    print(f"{'array':>12} {'shared':>8} {'private':>8}")
    for width in (130, 256):
        shared, private = (min(rect_cost(width, kind) for _ in range(REPS)) * 1e9
                           for kind in (True, False))
        print(f"{f'4096 x {width}':>12} {shared:>8.2f} {private:>8.2f}")
    out = min(rect_cost(None) for _ in range(REPS)) * 1e9
    print(f"out of place, two framed arrays: {out:.2f}")


if __name__ == "__main__":
    if sys.argv[1:] == ["per-cell"]:
        per_cell()
        sys.exit()
    bare_kernel()
    # kernel_large: 2048^2, 256^2 tiles, 16 sweeps, one node (8 row slabs a sweep)
    runtime("kernel_large", JacobiProblem(n=2048, iterations=SWEEPS, init=0.5,
                                          bc=DirichletBC(1.5)), 1, 256)
    # 512^2 on the modelled nacl(4): one node block of 2^18 cells, one task a sweep
    runtime("512^2 nacl(4)", JacobiProblem(n=512, iterations=SWEEPS, init=0.5,
                                           bc=DirichletBC(1.5)), 4, 64)
