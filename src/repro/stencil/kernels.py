"""Vectorised 5-point Jacobi update kernels.

The paper uses the general weighted form (eq. 1):

    x'[i,j] = w_c*x[i,j] + w_n*x[i-1,j] + w_s*x[i+1,j]
            + w_w*x[i,j-1] + w_e*x[i,j+1]

with 5 multiplies + 4 adds = 9 FLOP per point for *every*
implementation, so FLOP/s numbers are comparable across PETSc, base
and CA versions.  The kernels here operate on a tile's extended
(ghost-padded) array and update an arbitrary rectangular region, which
is what the CA version needs to update core-plus-shrinking-halo
regions.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass

import numpy as np

#: FLOP per point of the general 5-point update.
FLOP_PER_POINT = 9

#: Cells of one row band of an update.  The kernel is memory-bound, so
#: a band's accumulator, temporary, source rows and destination rows
#: (4 x 256 KiB at this size) should stay in a core's L2 while the 4 or
#: 9 passes run over them.  Measured on this repo's 2-core host (2 MiB
#: L2 per core), best of 15-200 interleaved calls with ``out=new[rs,
#: cs]``: a 2048^2 region takes 15.6 / 15.4 / 15.1 / 15.5 / 17.8 /
#: 23.0 ms at 2k / 16k / 32k / 64k / 128k cells / unbanded, a 256^2 tile
#: 333 / 161 / 157 / 160 us at 2k / 16k / 32k / 64k (short bands pay
#: numpy's per-call cost, tall ones fall out of cache).
BAND_CELLS = 32768

#: Cells of one row slab of a node-block task (``repro.core.dataflow``):
#: a part of a node block -- its boundary or its interior tiles -- is cut
#: into ``cells // SLAB_CELLS`` runs of whole tile rows, so a node's
#: workers have tasks to share.  A task costs ~40-100 us of runtime
#: (``exec.overhead_us_per_task`` 67 / 92 on ``kernel_large`` /
#: ``halo_base``) and the kernel ~4-6 ns a cell (the 2048^2 region above),
#: so 2^19 cells is ~2-3 ms of kernel per task and the overhead a few
#: percent of it.  A function of size alone, never of the worker count.
SLAB_CELLS = 1 << 19

_scratch = threading.local()


@dataclass(frozen=True)
class StencilWeights:
    """Constant coefficients of the 5-point stencil, one per neighbour.

    The default is the classic Jacobi sweep for Laplace's equation:
    the new value is the average of the four neighbours.
    """

    center: float = 0.0
    north: float = 0.25
    south: float = 0.25
    west: float = 0.25
    east: float = 0.25

    def as_tuple(self) -> tuple[float, float, float, float, float]:
        return (self.center, self.north, self.south, self.west, self.east)

    @classmethod
    def laplace_jacobi(cls) -> "StencilWeights":
        return cls()

    @classmethod
    def damped_jacobi(cls, omega: float = 0.8) -> "StencilWeights":
        """Weighted Jacobi: x' = (1-w)*x + w*avg(neighbours)."""
        if not 0 < omega <= 1:
            raise ValueError("relaxation factor must be in (0, 1]")
        return cls(center=1.0 - omega, north=omega / 4, south=omega / 4,
                   west=omega / 4, east=omega / 4)

    @classmethod
    def heat_explicit(cls, alpha_dt_h2: float = 0.2) -> "StencilWeights":
        """Explicit Euler step of the heat equation, stable for
        ``alpha*dt/h^2 <= 0.25``."""
        if not 0 < alpha_dt_h2 <= 0.25:
            raise ValueError("alpha*dt/h^2 must be in (0, 0.25] for stability")
        k = alpha_dt_h2
        return cls(center=1.0 - 4 * k, north=k, south=k, west=k, east=k)


def _band_scratch(cells: int) -> np.ndarray:
    """This thread's ``(2, >= cells)`` accumulator/temporary pair.  It
    grows to the largest band the thread has seen and is never
    pre-sized: a process that only ever solves small tiles only ever
    touches small scratch."""
    buf = getattr(_scratch, "buf", None)
    if buf is None or buf.shape[1] < cells:
        buf = _scratch.buf = np.empty((2, cells))
    return buf


def update_target(
    ext: np.ndarray, rows: slice, cols: slice, out: np.ndarray | None
) -> np.ndarray:
    """Validate an update region of ``ext`` and return the array its
    new values go to: ``out`` (checked against the region's shape) or
    a fresh array."""
    r0, r1 = rows.start, rows.stop
    c0, c1 = cols.start, cols.stop
    if r0 < 1 or c0 < 1 or r1 > ext.shape[0] - 1 or c1 > ext.shape[1] - 1:
        raise IndexError(
            f"update region rows {r0}:{r1} cols {c0}:{c1} leaves no "
            f"neighbour ring inside array of shape {ext.shape}"
        )
    shape = (max(0, r1 - r0), max(0, c1 - c0))
    if out is None:
        return np.empty(shape)
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, the region {shape}")
    return out


def row_bands(rows: slice, ncols: int):
    """Split a non-empty update region into row bands of about
    :data:`BAND_CELLS` cells; yields ``(b0, b1, acc, tmp)`` -- the
    band's rows in the extended array and two contiguous
    ``(b1 - b0, ncols)`` views of this thread's scratch."""
    r0, r1 = rows.start, rows.stop
    height = max(1, BAND_CELLS // ncols)
    buf = _band_scratch(min(height, r1 - r0) * ncols)
    for b0 in range(r0, r1, height):
        b1 = min(b0 + height, r1)
        band = buf[:, : (b1 - b0) * ncols].reshape(2, b1 - b0, ncols)
        yield b0, b1, band[0], band[1]


def weighted_sum_band(ext, b0, b1, c0, c1, weights, acc, tmp, dst) -> None:
    """The general update of rows ``b0:b1`` of a region, in the paper's
    order: ``wc*C + wn*N + ws*S + ww*W + we*E`` summed left to right, 9
    passes, into ``dst``.  ``weights`` are five scalars or five
    band-shaped coefficient arrays."""
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


def jacobi_update_region(
    ext: np.ndarray,
    weights: StencilWeights,
    rows: slice,
    cols: slice,
    out: np.ndarray | None = None,
) -> np.ndarray:
    """Compute updated values for ``ext[rows, cols]`` reading the four
    neighbours from ``ext``; ``ext`` is not modified.

    ``rows``/``cols`` are slices into the *extended* array and must
    leave at least one ring of valid data around the region.  The
    result goes to ``out`` when given -- any array of the region's
    shape that does not overlap ``ext``, including a strided view such
    as ``new[rows, cols]`` -- and to a fresh array otherwise.  Nothing
    region-sized is allocated besides that fresh array: the update
    runs over row bands (:func:`row_bands`) accumulated in contiguous
    per-thread scratch with shifted views of ``ext`` (no copies), each
    finished band stored to ``out`` in its last pass.

    Two operation orders, chosen by the weights alone:

    * centre weight 0 and the four neighbour weights one power of two
      ``w`` (the paper's Laplace problem): ``(((N + S) + W) + E) * w``,
      4 array passes;
    * any other weights: ``wc*C + wn*N + ws*S + ww*W + we*E`` summed
      left to right, 9 passes.

    On the first kind of weights the two orders agree bit for bit,
    because scaling by a power of two commutes with rounding.  That
    holds for finite values whose products and sums stay clear of
    overflow and of the subnormal range; there the results can differ
    only in the sign of an exact zero, which ``np.array_equal``
    ignores.
    """
    out = update_target(ext, rows, cols, out)
    if out.size == 0:
        return out
    r0 = rows.start
    c0, c1 = cols.start, cols.stop
    wc, wn, ws, ww, we = wts = weights.as_tuple()
    scaled_sum = wc == 0 and wn == ws == ww == we and math.frexp(wn)[0] == 0.5
    for b0, b1, acc, tmp in row_bands(rows, c1 - c0):
        dst = out[b0 - r0 : b1 - r0]
        if scaled_sum:
            np.add(ext[b0 - 1 : b1 - 1, c0:c1], ext[b0 + 1 : b1 + 1, c0:c1], out=acc)
            acc += ext[b0:b1, c0 - 1 : c1 - 1]
            acc += ext[b0:b1, c0 + 1 : c1 + 1]
            np.multiply(acc, wn, out=dst)
        else:
            weighted_sum_band(ext, b0, b1, c0, c1, wts, acc, tmp, dst)
    return out


def jacobi_sweep_framed(
    framed: np.ndarray, weights: StencilWeights, depth: int = 1
) -> np.ndarray:
    """One full Jacobi sweep over the interior of a framed array (frame
    of ``depth`` boundary cells); returns a new framed array with the
    frame preserved."""
    if framed.shape[0] <= 2 * depth or framed.shape[1] <= 2 * depth:
        raise ValueError("framed array smaller than its frame")
    rows = slice(depth, framed.shape[0] - depth)
    cols = slice(depth, framed.shape[1] - depth)
    new = framed.copy()
    jacobi_update_region(framed, weights, rows, cols, out=new[rows, cols])
    return new


def region_flops(rows: slice | tuple, cols: slice | tuple) -> int:
    """FLOP count of updating a region (9 per point)."""
    if isinstance(rows, slice):
        nr = rows.stop - rows.start
    else:
        nr = rows[1] - rows[0]
    if isinstance(cols, slice):
        nc = cols.stop - cols.start
    else:
        nc = cols[1] - cols[0]
    return FLOP_PER_POINT * max(0, nr) * max(0, nc)
