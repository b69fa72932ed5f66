"""The 5-point Jacobi update kernel.

The paper uses the general weighted form (eq. 1):

    x'[i,j] = w_c*x[i,j] + w_n*x[i-1,j] + w_s*x[i+1,j]
            + w_w*x[i,j-1] + w_e*x[i,j+1]

with 5 multiplies + 4 adds = 9 FLOP per point for *every*
implementation, so FLOP/s numbers are comparable across PETSc, base
and CA versions.  The kernel operates on a tile's extended
(ghost-padded) array and updates an arbitrary rectangular region, which
is what the CA version needs to update core-plus-shrinking-halo
regions.

As the paper's PaRSEC tasks do, the update runs a compiled C loop: one
pass per cell (:data:`_SOURCE`), built at import with the host's ``cc``
into ``~/.cache/repro/kernels/<key>.so`` -- once per source and compiler
-- and called through :mod:`ctypes`, which releases the interpreter lock
for the call.  Loading happens at import, so before any fork.  The
numpy expression of the same update stays as the oracle the C loop is
tested against, and as the fallback: without a compiler, when building
or loading fails (one warning), and for arrays that are not float64
with an inner stride of one element.  Both follow one operation order
per weight kind, so they agree bit for bit, the sign of zero included.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np

#: FLOP per point of the general 5-point update.
FLOP_PER_POINT = 9

#: Cells of one row slab of a node-block task (``repro.core.dataflow``):
#: a part of a node block -- its boundary or its interior tiles -- is cut
#: into ``cells // SLAB_CELLS`` runs of whole tile rows, so a node's
#: workers have tasks to share.  A task costs ~40-100 us of runtime
#: (``exec.overhead_us_per_task`` 67 / 92 on ``kernel_large`` /
#: ``halo_base``) and the C kernel ~1.6-2.3 ns a cell (0.86 ms for one
#: ``kernel_large`` slab, EXPERIMENTS.md), so 2^19 cells is ~1 ms of
#: kernel per task and the overhead 5-10 % of it.  A function of size
#: alone, never of the worker count.
SLAB_CELLS = 1 << 19

#: The C kernel.  ``x`` points at the region's first cell and ``out``
#: at its destination; strides are in doubles.  The operation order is
#: the numpy path's, and ``-ffp-contract=off`` keeps the compiler from
#: fusing a multiply and an add into one rounding.
_SOURCE = """\
#include <stddef.h>

void laplace(const double *restrict x, ptrdiff_t xs, double *restrict out,
             ptrdiff_t os, ptrdiff_t rows, ptrdiff_t cols, double w)
{
    for (ptrdiff_t i = 0; i < rows; i++, x += xs, out += os)
        for (ptrdiff_t j = 0; j < cols; j++)
            out[j] = (((x[j - xs] + x[j + xs]) + x[j - 1]) + x[j + 1]) * w;
}

void weighted(const double *restrict x, ptrdiff_t xs, double *restrict out,
              ptrdiff_t os, ptrdiff_t rows, ptrdiff_t cols, double wc,
              double wn, double ws, double ww, double we)
{
    for (ptrdiff_t i = 0; i < rows; i++, x += xs, out += os)
        for (ptrdiff_t j = 0; j < cols; j++)
            out[j] = wc * x[j] + wn * x[j - xs] + ws * x[j + xs]
                   + ww * x[j - 1] + we * x[j + 1];
}
"""

#: The compiler and its flags.  No ``-march=native``: a cached build
#: must not fault on another CPU that shares the home directory.
_CC = "cc"
_FLAGS = ("-O2", "-ffp-contract=off", "-fPIC", "-shared")
_CACHE_DIR = os.path.expanduser("~/.cache/repro/kernels")


def _load() -> ctypes.CDLL | None:
    """The C kernel, built into :data:`_CACHE_DIR` unless this source,
    these flags and this compiler already have a build there; ``None``
    and one warning when it cannot be built or loaded.

    The compiler is identified by its resolved path, size and mtime
    rather than by running ``cc --version``: a warm load starts no
    process, because a child's peak RSS in ``getrusage`` is the
    importer's resident set at the fork."""
    try:
        cc = shutil.which(_CC)
        if cc is None:
            raise FileNotFoundError(f"no {_CC!r} on PATH")
        real = os.path.realpath(cc)
        binary = os.stat(real)
        compiler = f"{real} {binary.st_size} {binary.st_mtime_ns}"
        key = hashlib.sha256("\0".join((_SOURCE, *_FLAGS, compiler)).encode())
        path = Path(_CACHE_DIR) / f"{key.hexdigest()[:16]}.so"
        if not path.exists():
            _compile(cc, path)
        lib = ctypes.CDLL(str(path))
    except (OSError, subprocess.SubprocessError) as exc:
        stderr = (getattr(exc, "stderr", None) or b"").decode(errors="replace")
        warnings.warn(f"no compiled stencil kernel ({exc} {stderr.strip()}); "
                      "updates run the numpy kernel", RuntimeWarning, stacklevel=2)
        return None
    head = (ctypes.c_void_p, ctypes.c_ssize_t) * 2 + (ctypes.c_ssize_t,) * 2
    lib.laplace.argtypes = head + (ctypes.c_double,)
    lib.weighted.argtypes = head + (ctypes.c_double,) * 5
    lib.laplace.restype = lib.weighted.restype = None
    return lib


def _compile(cc: str, path: Path) -> None:
    """Build the shared object in a private directory, then publish it
    atomically: a concurrent importer loads a whole build or none."""
    from ..core.store import atomic_write  # repro.core imports this module

    with tempfile.TemporaryDirectory() as tmp:
        source, shared = Path(tmp, "kernel.c"), Path(tmp, "kernel.so")
        source.write_text(_SOURCE)
        subprocess.run([cc, *_FLAGS, "-o", str(shared), str(source)],
                       capture_output=True, check=True)
        binary = shared.read_bytes()
    atomic_write(path, lambda fh: fh.write(binary))


def active_kernel() -> str:
    """``"c"`` when updates run the compiled loop, ``"numpy"`` when
    this process fell back to the numpy kernel."""
    return "numpy" if _lib is None else "c"


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
    as ``new[rows, cols]`` -- and to a fresh array otherwise.

    Two operation orders, chosen by the weights alone, in the C loop
    and in the numpy one alike:

    * centre weight 0 and the four neighbour weights one power of two
      ``w`` (the paper's Laplace problem): ``(((N + S) + W) + E) * w``;
    * any other weights: ``wc*C + wn*N + ws*S + ww*W + we*E`` summed
      left to right.

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
    r0, r1 = rows.start, rows.stop
    c0, c1 = cols.start, cols.stop
    wc, wn, ws, ww, we = wts = weights.as_tuple()
    scaled_sum = wc == 0 and wn == ws == ww == we and math.frexp(wn)[0] == 0.5
    if _lib is not None and _flat(ext) and _flat(out) and out.flags.writeable:
        x = ext.ctypes.data + r0 * ext.strides[0] + c0 * 8
        xs, os_ = ext.strides[0] // 8, out.strides[0] // 8
        if scaled_sum:
            _lib.laplace(x, xs, out.ctypes.data, os_, *out.shape, wn)
        else:
            _lib.weighted(x, xs, out.ctypes.data, os_, *out.shape, *wts)
        return out
    north, south = ext[r0 - 1 : r1 - 1, c0:c1], ext[r0 + 1 : r1 + 1, c0:c1]
    west, east = ext[r0:r1, c0 - 1 : c1 - 1], ext[r0:r1, c0 + 1 : c1 + 1]
    if scaled_sum:
        np.add(north, south, out=out)
        out += west
        out += east
        out *= wn
        return out
    tmp = np.empty(out.shape)
    np.multiply(ext[r0:r1, c0:c1], wc, out=out)
    for neighbour, w in ((north, wn), (south, ws), (west, ww), (east, we)):
        np.multiply(neighbour, w, out=tmp)
        out += tmp
    return out


def _flat(a: np.ndarray) -> bool:
    """Whether the C loop can address ``a``: native float64, aligned,
    one element between neighbours in a row."""
    return a.dtype == np.float64 and a.strides[1] == 8 and a.flags.aligned


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


# Last, so that the modules publishing the build (which import this
# one) find everything above defined.
_lib = _load()
