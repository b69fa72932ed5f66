"""Boundary conditions for the global grid.

The paper solves Laplace's equation with Jacobi iterations, i.e. the
grid of unknowns is surrounded by a ring of fixed (Dirichlet) values.
A :class:`DirichletBC` supplies those values; it fills the cells of a
tile's extended array that fall *outside* the global grid (pads along
physical edges) once at initialisation -- Dirichlet data never
changes, so no refresh is ever needed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .tile import TileSpec


@dataclass(frozen=True)
class DirichletBC:
    """Fixed boundary values.

    Parameters
    ----------
    value:
        Either a constant, or a vectorised callable ``f(rows, cols) ->
        values`` evaluated on *global* index arrays (which are outside
        ``[0, nrows) x [0, ncols)`` for boundary cells).
    """

    value: float | Callable[[np.ndarray, np.ndarray], np.ndarray] = 0.0

    def evaluate(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        if callable(self.value):
            out = np.asarray(self.value(rows, cols), dtype=np.float64)
            if out.shape != rows.shape:
                raise ValueError(
                    f"boundary function returned shape {out.shape}, "
                    f"expected {rows.shape}"
                )
            return out
        return np.full(rows.shape, float(self.value))

    def fill_exterior(
        self, ext: np.ndarray, tile: TileSpec, nrows: int, ncols: int
    ) -> None:
        """Write boundary values into every cell of ``ext`` whose global
        coordinate lies outside the grid.  Interior pad cells (ghosts
        of real neighbours) are left untouched."""
        self.fill_outside(ext, tile.origin, nrows, ncols)

    def lines(self, nrows: int, ncols: int) -> tuple[np.ndarray, ...]:
        """The boundary values next to the grid, as the four neighbour
        lines of its outermost cells: ``(north, south, west, east)`` --
        row -1 and row ``nrows`` over columns ``0..ncols-1``, column -1
        and column ``ncols`` over rows ``0..nrows-1``.  O(perimeter)."""
        rows, cols = np.arange(nrows), np.arange(ncols)
        return (self.evaluate(np.full(ncols, -1), cols),
                self.evaluate(np.full(ncols, nrows), cols),
                self.evaluate(rows, np.full(nrows, -1)),
                self.evaluate(rows, np.full(nrows, ncols)))

    def frame(self, nrows: int, ncols: int, depth: int = 1) -> np.ndarray:
        """A dense (nrows + 2*depth) x (ncols + 2*depth) array holding
        boundary values on the outer frame and zeros inside; used by
        the single-array reference implementation."""
        framed = np.zeros((nrows + 2 * depth, ncols + 2 * depth))
        self.fill_outside(framed, (-depth, -depth), nrows, ncols)
        return framed

    def fill_outside(
        self, arr: np.ndarray, origin: tuple[int, int], nrows: int, ncols: int
    ) -> None:
        """Evaluate the boundary on the cells of ``arr`` (whose [0, 0]
        is global cell ``origin``) outside ``[0, nrows) x [0, ncols)``.
        Those cells form at most four edge strips -- full-width rows
        above and below the grid, columns left and right of it in
        between -- so the work is O(perimeter), not O(area)."""
        height, width = arr.shape
        top = min(max(-origin[0], 0), height)
        bottom = min(max(nrows - origin[0], top), height)
        left = min(max(-origin[1], 0), width)
        right = min(max(ncols - origin[1], left), width)
        for rs, cs in (
            (slice(0, top), slice(0, width)),
            (slice(bottom, height), slice(0, width)),
            (slice(top, bottom), slice(0, left)),
            (slice(top, bottom), slice(right, width)),
        ):
            if rs.stop > rs.start and cs.stop > cs.start:
                gr, gc = np.meshgrid(
                    np.arange(origin[0] + rs.start, origin[0] + rs.stop),
                    np.arange(origin[1] + cs.start, origin[1] + cs.stop),
                    indexing="ij",
                )
                arr[rs, cs] = self.evaluate(gr, gc)
