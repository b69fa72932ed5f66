"""Variable-coefficient 5-point stencils.

Section III-A of the paper distinguishes constant-coefficient stencils
(one weight per direction for the whole grid -- what the evaluation
uses) from *variable-coefficient* stencils whose weights "differ at
each grid point", the form general PDE discretisations produce.  This
module adds the variable form across the whole stack: the coefficient
field is a time-invariant function of the global grid position, so it
is replicated (read-only) on every node and requires no communication
-- only the kernels change.

The FLOP count per point stays the paper's 9 (5 multiplies + 4 adds);
memory traffic per point grows by the five coefficient loads, which
:meth:`VariableStencilWeights.bytes_per_point_extra` reports for cost
models that want to charge it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .kernels import (
    Lines,
    StencilWeights,
    _thread_scratch,
    jacobi_update_lines,
    lines_target,
    update_in_windows,
    update_target,
)

#: Cells of one row band of a multi-pass numpy computation: the
#: variable-coefficient update (coefficient fields, then 9 passes),
#: a source term added to a rectangle, the reference's initial load.
#: The passes are memory-bound, so a band's accumulator, temporary,
#: source rows and destination rows (4 x 256 KiB at this size) should
#: stay in a core's L2 while they run.  Measured on a 2-core host
#: (2 MiB L2 per core) with the constant-weight numpy update, best of
#: 15-200 interleaved calls with ``out=new[rs, cs]``: a 2048^2 region
#: took 15.6 / 15.4 / 15.1 / 15.5 / 17.8 / 23.0 ms at 2k / 16k / 32k /
#: 64k / 128k cells / unbanded, a 256^2 tile 333 / 161 / 157 / 160 us at
#: 2k / 16k / 32k / 64k (short bands pay numpy's per-call cost, tall
#: ones fall out of cache).
BAND_CELLS = 32768

#: A coefficient field: constant, or a vectorised callable of global
#: (row, col) index arrays.
Coefficient = float | Callable[[np.ndarray, np.ndarray], np.ndarray]


def _row_bands(rows: slice, ncols: int):
    """Split a non-empty update region into row bands of about
    :data:`BAND_CELLS` cells; yields ``(b0, b1, acc, tmp)`` -- the
    band's rows in the extended array and two contiguous
    ``(b1 - b0, ncols)`` views of this thread's scratch."""
    r0, r1 = rows.start, rows.stop
    height = max(1, BAND_CELLS // ncols)
    cells = min(height, r1 - r0) * ncols
    buf = _thread_scratch("band", 2 * cells)[: 2 * cells].reshape(2, cells)
    for b0 in range(r0, r1, height):
        b1 = min(b0 + height, r1)
        band = buf[:, : (b1 - b0) * ncols].reshape(2, b1 - b0, ncols)
        yield b0, b1, band[0], band[1]


def _weighted_sum_band(ext, b0, b1, c0, c1, weights, acc, tmp, dst) -> None:
    """The general update of rows ``b0:b1`` of a region, in the paper's
    order: ``wc*C + wn*N + ws*S + ww*W + we*E`` summed left to right, 9
    passes, into ``dst``.  ``weights`` are five band-shaped coefficient
    arrays."""
    wc, wn, ws, ww, we = weights
    np.multiply(ext[b0:b1, c0:c1], wc, out=acc)
    np.multiply(ext[b0 - 1 : b1 - 1, c0:c1], wn, out=tmp)
    acc += tmp
    np.multiply(ext[b0 + 1 : b1 + 1, c0:c1], ws, out=tmp)
    acc += tmp
    np.multiply(ext[b0:b1, c0 - 1 : c1 - 1], ww, out=tmp)
    acc += tmp
    np.multiply(ext[b0:b1, c0 + 1 : c1 + 1], we, out=tmp)
    np.add(acc, tmp, out=dst)


def _evaluate(coef: Coefficient, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    if callable(coef):
        out = np.asarray(coef(rows, cols), dtype=np.float64)
        if out.shape != rows.shape:
            raise ValueError(
                f"coefficient field returned shape {out.shape}, expected {rows.shape}"
            )
        return out
    return np.full(rows.shape, float(coef))


@dataclass(frozen=True)
class VariableStencilWeights:
    """Per-point weights of the 5-point update:

        x'[i,j] = c[i,j]*x[i,j] + n[i,j]*x[i-1,j] + s[i,j]*x[i+1,j]
                + w[i,j]*x[i,j-1] + e[i,j]*x[i,j+1]

    Each field is a constant or a vectorised callable of the *global*
    grid indices, evaluated lazily on whatever region a kernel updates
    (tiles never materialise the whole-grid field).
    """

    center: Coefficient = 0.0
    north: Coefficient = 0.25
    south: Coefficient = 0.25
    west: Coefficient = 0.25
    east: Coefficient = 0.25

    def evaluate(
        self, rows: np.ndarray, cols: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(center, north, south, west, east) fields on a region."""
        return (
            _evaluate(self.center, rows, cols),
            _evaluate(self.north, rows, cols),
            _evaluate(self.south, rows, cols),
            _evaluate(self.west, rows, cols),
            _evaluate(self.east, rows, cols),
        )

    @staticmethod
    def bytes_per_point_extra() -> int:
        """Extra traffic per updated point versus the constant form:
        five double loads of coefficients."""
        return 5 * 8

    @classmethod
    def from_diffusivity(
        cls, kappa: Callable[[np.ndarray, np.ndarray], np.ndarray], dt_h2: float = 0.2
    ) -> "VariableStencilWeights":
        """Explicit step of the heterogeneous heat equation
        ``u_t = div(kappa grad u)`` with a cell-centred diffusivity
        field: neighbour weights are the face-averaged diffusivities
        scaled by dt/h^2, the centre weight balances them (row sum 1,
        so a constant field is stationary away from the boundary)."""
        if dt_h2 <= 0:
            raise ValueError("dt/h^2 must be positive")

        def face(dr: int, dc: int):
            def f(r, c):
                return dt_h2 * 0.5 * (kappa(r, c) + kappa(r + dr, c + dc))

            return f

        north, south = face(-1, 0), face(1, 0)
        west, east = face(0, -1), face(0, 1)

        def center(r, c):
            return 1.0 - (north(r, c) + south(r, c) + west(r, c) + east(r, c))

        return cls(center=center, north=north, south=south, west=west, east=east)


def jacobi_update_region_variable(
    ext: np.ndarray,
    weights: VariableStencilWeights,
    rows: slice,
    cols: slice,
    origin: tuple[int, int],
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Variable-coefficient version of
    :func:`repro.stencil.kernels.jacobi_update_region`, with the same
    ``out`` contract and its general operation order, in numpy passes
    over row bands (:func:`_row_bands`) accumulated in contiguous
    per-thread scratch: the coefficient fields are evaluated band by
    band, so they too stay cache-sized.

    ``origin`` is the global (row, col) of ``ext[0, 0]`` so the
    coefficient fields can be evaluated at the right grid positions.
    """
    out = update_target(ext, rows, cols, out)
    if out.size == 0:
        return out
    r0 = rows.start
    c0, c1 = cols.start, cols.stop
    gcols = np.arange(origin[1] + c0, origin[1] + c1)
    for b0, b1, acc, tmp in _row_bands(rows, c1 - c0):
        gr, gc = np.meshgrid(
            np.arange(origin[0] + b0, origin[0] + b1), gcols, indexing="ij"
        )
        _weighted_sum_band(ext, b0, b1, c0, c1, weights.evaluate(gr, gc),
                           acc, tmp, out[b0 - r0 : b1 - r0])
    return out


def apply_stencil_lines(
    x: np.ndarray,
    weights,
    rows: slice,
    cols: slice,
    lines: Lines,
    origin: tuple[int, int],
    out: np.ndarray | None = None,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """Dispatch on the weight kind: update ``x[rows, cols]`` in place --
    or write ``out`` -- from the region and its four neighbour lines
    (:func:`repro.stencil.kernels.jacobi_update_lines`), ``origin`` being
    the global (row, col) of ``x[0, 0]``.  Constant weights ignore it;
    variable weights take the numpy window path, their fields evaluated
    at the window's global position.  This is the single entry point
    the dataflow kernels and the reference solver share."""
    if isinstance(weights, VariableStencilWeights):
        target = lines_target(x, rows, cols, lines, out, source)
        if target.size == 0:
            return target

        def update(window, wrows, wcols, dst, corner):
            return jacobi_update_region_variable(
                window, weights, wrows, wcols,
                (origin[0] + corner[0], origin[1] + corner[1]), dst)

        return update_in_windows(x, rows, cols, lines, target, source, update)
    if isinstance(weights, StencilWeights):
        return jacobi_update_lines(x, weights, rows, cols, lines, out, source)
    raise TypeError(f"unsupported weights type {type(weights).__name__}")
