"""Single-array reference Jacobi solver -- the numerical ground truth.

Every distributed implementation (base-PaRSEC, CA-PaRSEC, PETSc-lite)
is property-tested to produce bit-identical results to this solver,
which performs the textbook two-buffer Jacobi sweep on one dense array
with an explicit Dirichlet frame.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..distgrid.boundary import DirichletBC
from .variable import apply_stencil_region


def jacobi_reference(
    grid: np.ndarray,
    weights,
    iterations: int,
    bc: DirichletBC | None = None,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """Run ``iterations`` Jacobi sweeps over ``grid`` and return the
    final grid (the input is not modified).

    The grid holds the unknowns; Dirichlet values from ``bc`` surround
    it (constant in time, like the paper's Laplace problem).  An
    optional ``source`` array is added after every sweep (damped-Jacobi
    forcing for Poisson problems).
    """
    if grid.ndim != 2:
        raise ValueError("grid must be 2-D")

    def load(interior: np.ndarray) -> None:
        interior[...] = grid

    return jacobi_sweeps(grid.shape, load, weights, iterations, bc, source)


def jacobi_sweeps(
    shape: tuple[int, int],
    load: Callable[[np.ndarray], None],
    weights,
    iterations: int,
    bc: DirichletBC | None = None,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """The sweeps of :func:`jacobi_reference` on a grid of ``shape``
    whose initial values ``load(interior)`` writes into the interior of
    the framed buffer: two framed buffers, both this call's, so the
    solve holds two grids -- the one it reads and the one it writes --
    and only the final one while the result is copied out."""
    if iterations < 0:  # checked before anything grid-sized exists
        raise ValueError("iteration count cannot be negative")
    if source is not None and source.shape != tuple(shape):
        raise ValueError(f"source shape {source.shape} != grid {tuple(shape)}")
    cur = (bc or DirichletBC(0.0)).frame(*shape, depth=1)
    rows = slice(1, shape[0] + 1)
    cols = slice(1, shape[1] + 1)
    load(cur[rows, cols])
    nxt = cur.copy()
    for _ in range(iterations):
        # Sweep from one framed buffer straight into the other's
        # interior; [0, 0] of either is global cell (-1, -1).
        apply_stencil_region(
            cur, weights, rows, cols, origin=(-1, -1), out=nxt[rows, cols]
        )
        if source is not None:
            nxt[rows, cols] += source
        cur, nxt = nxt, cur
    del nxt  # two grids, not three, while the result is copied out
    return cur[rows, cols].copy()


def residual_norm(
    grid: np.ndarray, weights, bc: DirichletBC | None = None,
    source: np.ndarray | None = None,
) -> float:
    """Infinity norm of ``x - S(x)`` where S is one stencil sweep --
    zero exactly at the fixed point the Jacobi iteration converges to."""
    swept = jacobi_reference(grid, weights, 1, bc, source=source)
    return float(np.max(np.abs(swept - grid)))
