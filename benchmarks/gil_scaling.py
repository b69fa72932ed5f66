"""Do two threads help the bare kernel?  (ROADMAP 1d's `jobs > 1` table.)

    PYTHONPATH=src python benchmarks/gil_scaling.py

`jacobi_update_region` over a static half/half partition of private
tiles -- `kernel_large`'s arithmetic (2048^2 cells, 16 sweeps) with no
runtime in the way at all: no graph, no queue, no store, no shared data
-- on 1 and on 2 threads, for tiles of 128 / 256 / 512 cells a side,
with the kernel's row bands (`BAND_CELLS`) and without.  Best of five,
seconds; `docs/runtime-guide.md` carries the table next to the task
runtime's `jobs=1|2` and `procs=1|2` on the same shapes.
"""

from __future__ import annotations

import threading
import time

import numpy as np

from repro.stencil import kernels
from repro.stencil.kernels import StencilWeights, jacobi_update_region

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


def main() -> None:
    banded = kernels.BAND_CELLS
    print(f"{'tile':>6} {'bands':>9} {'1 thread':>10} {'2 threads':>10} {'2 / 1':>7}")
    for label, cells in (("banded", banded), ("unbanded", 1 << 62)):
        kernels.BAND_CELLS = cells
        for tile in (128, 256, 512):
            one, two = (min(solve(tile, n) for _ in range(REPS)) for n in (1, 2))
            print(f"{tile:>6} {label:>9} {one:>10.3f} {two:>10.3f} {two / one:>7.2f}")
    kernels.BAND_CELLS = banded


if __name__ == "__main__":
    main()
