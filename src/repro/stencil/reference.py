"""Single-array reference Jacobi solver -- the numerical ground truth.

Every distributed implementation (base-PaRSEC, CA-PaRSEC, PETSc-lite)
is property-tested to produce bit-identical results to this solver,
which sweeps one dense array in place, its Dirichlet values held as the
four neighbour lines around the grid.

An in-place sweep is still the textbook Jacobi iteration, not a
Gauss-Seidel one: :func:`~repro.stencil.variable.apply_stencil_lines`
computes every cell from the values of the previous sweep (the kernel
keeps the new rows in two rows of scratch until no later row reads the
old ones) with the same operation, in the same order, as the
out-of-place :func:`~repro.stencil.kernels.jacobi_update_region`.
``tests/test_kernels.py`` pins the two -- and the compiled loop against
its numpy oracle -- equal bit for bit.  A solve holds one grid.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..distgrid.boundary import DirichletBC
from .variable import apply_stencil_lines


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

    def load(out: np.ndarray) -> None:
        out[...] = grid

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
    whose initial values ``load(grid)`` writes: one array, this call's,
    swept in place and returned -- the solve holds one grid and its
    O(rows + cols) boundary lines."""
    if iterations < 0:  # checked before anything grid-sized exists
        raise ValueError("iteration count cannot be negative")
    if source is not None and source.shape != tuple(shape):
        raise ValueError(f"source shape {source.shape} != grid {tuple(shape)}")
    grid = np.empty(shape)
    load(grid)
    lines = (bc or DirichletBC(0.0)).lines(*shape)
    rows, cols = slice(0, shape[0]), slice(0, shape[1])
    for _ in range(iterations):
        apply_stencil_lines(grid, weights, rows, cols, lines, origin=(0, 0), source=source)
    return grid


def residual_norm(
    grid: np.ndarray, weights, bc: DirichletBC | None = None,
    source: np.ndarray | None = None,
) -> float:
    """Infinity norm of ``x - S(x)`` where S is one stencil sweep --
    zero exactly at the fixed point the Jacobi iteration converges to."""
    swept = jacobi_reference(grid, weights, 1, bc, source=source)
    return float(np.max(np.abs(swept - grid)))
