"""Problem specification: what to solve, independent of how.

A :class:`JacobiProblem` bundles the grid extents, the stencil
weights, the initial state, the Dirichlet boundary and the iteration
count -- everything the three implementations share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..distgrid.boundary import DirichletBC
from .kernels import FLOP_PER_POINT, StencilWeights
from .variable import BAND_CELLS
from .reference import jacobi_sweeps

Initializer = float | Callable[[np.ndarray, np.ndarray], np.ndarray]


@dataclass(frozen=True)
class JacobiProblem:
    """A 2D 5-point Jacobi run.

    Parameters
    ----------
    n:
        Grid rows; ``ncols`` defaults to ``n`` (the paper's grids are
        square: 20k, 23k, 27k, 55k).
    iterations:
        Jacobi sweeps to perform (the paper runs 100).
    weights:
        Stencil coefficients: a constant :class:`StencilWeights` (the
        paper's evaluation) or a per-point
        :class:`~repro.stencil.variable.VariableStencilWeights`.
    init:
        Initial grid values: a constant or a vectorised callable
        ``f(rows, cols)`` over global indices.
    bc:
        Dirichlet boundary values surrounding the grid.
    source:
        Optional per-point forcing added after every sweep:
        ``x' = S(x) + source``.  With weights ``damped_jacobi(omega)``
        and ``source = omega*h^2/4 * f`` this is exactly the damped
        Jacobi iteration for the Poisson problem ``-Lap(u) = f``, so
        the task-based implementations solve real PDEs, not only
        homogeneous sweeps.  Constant or vectorised callable of global
        indices; None disables the term (and its memory traffic).
    """

    n: int
    iterations: int
    ncols: int | None = None
    weights: StencilWeights = field(default_factory=StencilWeights.laplace_jacobi)
    init: Initializer = 0.0
    bc: DirichletBC = field(default_factory=lambda: DirichletBC(1.0))
    source: Initializer | None = None

    def __post_init__(self) -> None:
        if self.n < 1 or (self.ncols is not None and self.ncols < 1):
            raise ValueError("grid extents must be positive")
        if self.iterations < 0:
            raise ValueError("iteration count cannot be negative")

    @property
    def nrows(self) -> int:
        return self.n

    @property
    def shape(self) -> tuple[int, int]:
        return (self.n, self.ncols if self.ncols is not None else self.n)

    @property
    def points(self) -> int:
        return self.shape[0] * self.shape[1]

    @property
    def total_flops(self) -> int:
        """Nominal useful FLOP of the whole run: 9 n^2 per iteration,
        the figure all the paper's GFLOP/s numbers divide by."""
        return FLOP_PER_POINT * self.points * self.iterations

    def initial_block(self, rows: slice, cols: slice) -> np.ndarray:
        """Initial values of the global cells ``[rows, cols]``."""
        return _field_block(self.init, rows, cols, "initialiser")

    def initial_grid(self) -> np.ndarray:
        return self.initial_block(slice(0, self.shape[0]), slice(0, self.shape[1]))

    def source_block(self, rows: slice, cols: slice) -> np.ndarray | None:
        """Forcing on the global cells ``[rows, cols]`` (None when the
        problem has no source)."""
        if self.source is None:
            return None
        return _field_block(self.source, rows, cols, "source")

    def source_grid(self) -> np.ndarray | None:
        return self.source_block(slice(0, self.shape[0]), slice(0, self.shape[1]))

    def reference_solution(self) -> np.ndarray:
        """Ground-truth final grid from the single-array solver.  The
        initial values go straight into the array it sweeps in place,
        band by band as the tasks load them tile by tile, so the solve
        holds one grid (a ``source`` is one more)."""
        nrows, ncols = self.shape
        band = max(1, BAND_CELLS // ncols)

        def load(grid: np.ndarray) -> None:
            for r in range(0, nrows, band):
                rows = slice(r, min(r + band, nrows))
                grid[rows] = self.initial_block(rows, slice(0, ncols))

        return jacobi_sweeps(self.shape, load, self.weights, self.iterations, self.bc,
                             self.source_grid())


def _field_values(
    value: Initializer, rows: np.ndarray, cols: np.ndarray, what: str
) -> np.ndarray:
    """A constant or vectorised-callable field on global index arrays."""
    if callable(value):
        out = np.asarray(value(rows, cols), dtype=np.float64)
        if out.shape != rows.shape:
            raise ValueError(
                f"{what} returned shape {out.shape}, expected {rows.shape}"
            )
        return out
    return np.full(rows.shape, float(value))


def _field_block(value: Initializer, rows: slice, cols: slice, what: str) -> np.ndarray:
    """The field on a rectangular block of global cells; coordinate
    grids are built only for a callable -- a constant is ``np.full``."""
    if not callable(value):
        return np.full((rows.stop - rows.start, cols.stop - cols.start), float(value))
    gr, gc = np.meshgrid(
        np.arange(rows.start, rows.stop), np.arange(cols.start, cols.stop),
        indexing="ij",
    )
    return _field_values(value, gr, gc, what)
