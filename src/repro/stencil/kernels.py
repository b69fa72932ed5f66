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

Two entry points share those orders.  :func:`jacobi_update_region`
reads a region and its neighbour ring from one array and writes the
new values elsewhere.  :func:`jacobi_update_lines` -- what the solves
run -- updates a region in place, its four neighbour lines passed in
from wherever they live, so a sweep needs one array, not two.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import shutil
import subprocess
import tempfile
import threading
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
#: fusing a multiply and an add into one rounding.  The region's four
#: neighbour lines come from where the caller says -- north and south
#: rows of unit stride, west and east columns of any stride.  With
#: ``out == x`` the update is in place: row ``i`` goes into one of two
#: ``scratch`` rows and row ``i - 1`` is copied back, so every row is
#: computed from the values its neighbours had before the call; any
#: other ``out`` (which must not overlap what is read) is written
#: directly.  A ``src`` row, when given, is added to each new row.
_SOURCE = """\
#include <stddef.h>
#include <string.h>

typedef void row_fn(const double *up, const double *mid, const double *down,
                    double west, double east, double *restrict now,
                    ptrdiff_t cols, const double *w);

static void laplace_row(const double *up, const double *mid, const double *down,
                        double west, double east, double *restrict now,
                        ptrdiff_t cols, const double *w)
{
    ptrdiff_t last = cols - 1;
    if (last == 0) {
        now[0] = (((up[0] + down[0]) + west) + east) * w[0];
        return;
    }
    now[0] = (((up[0] + down[0]) + west) + mid[1]) * w[0];
    for (ptrdiff_t j = 1; j < last; j++)
        now[j] = (((up[j] + down[j]) + mid[j - 1]) + mid[j + 1]) * w[0];
    now[last] = (((up[last] + down[last]) + mid[last - 1]) + east) * w[0];
}

static void weighted_row(const double *up, const double *mid, const double *down,
                         double west, double east, double *restrict now,
                         ptrdiff_t cols, const double *w)
{
    ptrdiff_t last = cols - 1;
    if (last == 0) {
        now[0] = w[0] * mid[0] + w[1] * up[0] + w[2] * down[0] + w[3] * west
               + w[4] * east;
        return;
    }
    now[0] = w[0] * mid[0] + w[1] * up[0] + w[2] * down[0] + w[3] * west
           + w[4] * mid[1];
    for (ptrdiff_t j = 1; j < last; j++)
        now[j] = w[0] * mid[j] + w[1] * up[j] + w[2] * down[j] + w[3] * mid[j - 1]
               + w[4] * mid[j + 1];
    now[last] = w[0] * mid[last] + w[1] * up[last] + w[2] * down[last]
              + w[3] * mid[last - 1] + w[4] * east;
}

static void sweep(row_fn *row, const double *w, double *x, ptrdiff_t xs,
                  double *out, ptrdiff_t os, ptrdiff_t rows, ptrdiff_t cols,
                  const double *north, const double *south,
                  const double *west, ptrdiff_t wst, const double *east,
                  ptrdiff_t est, const double *src, ptrdiff_t ss,
                  double *restrict scratch)
{
    size_t bytes = (size_t)cols * sizeof(double);
    int in_place = out == x;
    if (rows <= 0 || cols <= 0)
        return;
    for (ptrdiff_t i = 0; i < rows; i++) {
        double *restrict now = in_place ? scratch + (i & 1) * cols : out + i * os;
        row(i ? x + (i - 1) * xs : north, x + i * xs,
            i + 1 < rows ? x + (i + 1) * xs : south, west[i * wst], east[i * est],
            now, cols, w);
        if (src)
            for (ptrdiff_t j = 0; j < cols; j++)
                now[j] += src[i * ss + j];
        if (in_place && i)
            memcpy(out + (i - 1) * os, scratch + ((i - 1) & 1) * cols, bytes);
    }
    if (in_place)
        memcpy(out + (rows - 1) * os, scratch + ((rows - 1) & 1) * cols, bytes);
}

void laplace_lines(double *x, ptrdiff_t xs, double *out, ptrdiff_t os,
                   ptrdiff_t rows, ptrdiff_t cols, const double *north,
                   const double *south, const double *west, ptrdiff_t wst,
                   const double *east, ptrdiff_t est, const double *src,
                   ptrdiff_t ss, double *scratch, double w)
{
    sweep(laplace_row, &w, x, xs, out, os, rows, cols, north, south, west, wst,
          east, est, src, ss, scratch);
}

void weighted_lines(double *x, ptrdiff_t xs, double *out, ptrdiff_t os,
                    ptrdiff_t rows, ptrdiff_t cols, const double *north,
                    const double *south, const double *west, ptrdiff_t wst,
                    const double *east, ptrdiff_t est, const double *src,
                    ptrdiff_t ss, double *scratch, double wc, double wn,
                    double ws, double ww, double we)
{
    const double w[5] = {wc, wn, ws, ww, we};
    sweep(weighted_row, w, x, xs, out, os, rows, cols, north, south, west, wst,
          east, est, src, ss, scratch);
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
    head = ((ctypes.c_void_p, ctypes.c_ssize_t) * 2 + (ctypes.c_ssize_t,) * 2
            + (ctypes.c_void_p,) * 2 + (ctypes.c_void_p, ctypes.c_ssize_t) * 3
            + (ctypes.c_void_p,))
    lib.laplace_lines.argtypes = head + (ctypes.c_double,)
    lib.weighted_lines.argtypes = head + (ctypes.c_double,) * 5
    lib.laplace_lines.restype = lib.weighted_lines.restype = None
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
    north, south = ext[r0 - 1 : r1 - 1, c0:c1], ext[r0 + 1 : r1 + 1, c0:c1]
    west, east = ext[r0:r1, c0 - 1 : c1 - 1], ext[r0:r1, c0 + 1 : c1 + 1]
    ring = (north[0], south[-1], west[:, 0], east[:, -1])
    if _compiled(ext, weights, rows, cols, ring, out, None):
        return out
    wc, wn, ws, ww, we = weights.as_tuple()
    if _scaled_sum(weights):
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


def _scaled_sum(weights: StencilWeights) -> bool:
    """Whether ``weights`` take the ``(((N + S) + W) + E) * w`` order."""
    wc, wn, ws, ww, we = weights.as_tuple()
    return wc == 0 and wn == ws == ww == we and math.frexp(wn)[0] == 0.5


def _compiled(x, weights, rows, cols, lines, target, source) -> bool:
    """Update ``x[rows, cols]`` into ``target`` with the C loop (in
    place when ``target`` is that region) and return True, or return
    False when the loop cannot address ``x``, ``target`` or ``source``.
    Lines of any layout are gathered for it (O(perimeter))."""
    if (_lib is None or not (_flat(x) and _flat(target) and target.flags.writeable)
            or not (source is None or _flat(source))):
        return False
    lines = [line if line.dtype == np.float64 and line.flags.aligned
             and line.strides[0] % 8 == 0 and (k > 1 or line.strides[0] == 8)
             else np.ascontiguousarray(line, np.float64)
             for k, line in enumerate(lines)]
    args = [x.ctypes.data + rows.start * x.strides[0] + cols.start * 8, x.strides[0] // 8,
            target.ctypes.data, target.strides[0] // 8, *target.shape,
            lines[0].ctypes.data, lines[1].ctypes.data,
            lines[2].ctypes.data, lines[2].strides[0] // 8,
            lines[3].ctypes.data, lines[3].strides[0] // 8,
            *((None, 0) if source is None else (source.ctypes.data, source.strides[0] // 8)),
            _thread_scratch("rows", 2 * target.shape[1]).ctypes.data]
    if _scaled_sum(weights):
        _lib.laplace_lines(*args, weights.north)
    else:
        _lib.weighted_lines(*args, *weights.as_tuple())
    return True


def _flat(a: np.ndarray) -> bool:
    """Whether the C loop can address ``a``: native float64, aligned,
    one element between neighbours in a row."""
    return a.dtype == np.float64 and a.strides[1] == 8 and a.flags.aligned


#: Cells of one window of the numpy in-place path
#: (:func:`update_in_windows`): a band of rows with its four neighbour
#: lines, small enough to stay in a core's L2 while its passes run.
WINDOW_CELLS = 32768

_scratch = threading.local()


def _thread_scratch(name: str, cells: int) -> np.ndarray:
    """This thread's scratch vector ``name`` of at least ``cells``
    doubles; it grows to the largest request and is never pre-sized."""
    buf = getattr(_scratch, name, None)
    if buf is None or buf.size < cells:
        buf = np.empty(cells)
        setattr(_scratch, name, buf)
    return buf


Lines = tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]


def lines_target(x: np.ndarray, rows: slice, cols: slice, lines: Lines,
                 out: np.ndarray | None, source: np.ndarray | None) -> np.ndarray:
    """Validate an update of ``x[rows, cols]`` from its neighbour
    ``lines`` and return the array its new values go to: ``out``, or
    the region itself."""
    r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
    if r0 < 0 or c0 < 0 or r1 > x.shape[0] or c1 > x.shape[1]:
        raise IndexError(f"update region rows {r0}:{r1} cols {c0}:{c1} outside "
                         f"array of shape {x.shape}")
    shape = (max(0, r1 - r0), max(0, c1 - c0))
    want = (shape[1], shape[1], shape[0], shape[0])
    if tuple(line.shape for line in lines) != tuple((n,) for n in want):
        raise ValueError(f"neighbour lines of shapes {[line.shape for line in lines]} "
                         f"for a {shape} region")
    if source is not None and source.shape != shape:
        raise ValueError(f"source has shape {source.shape}, the region {shape}")
    if out is None:
        return x[r0:r1, c0:c1]
    if out.shape != shape:
        raise ValueError(f"out has shape {out.shape}, the region {shape}")
    return out


def jacobi_update_lines(
    x: np.ndarray,
    weights: StencilWeights,
    rows: slice,
    cols: slice,
    lines: Lines,
    out: np.ndarray | None = None,
    source: np.ndarray | None = None,
) -> np.ndarray:
    """Update ``x[rows, cols]`` in place -- or into ``out`` -- from its
    own values and the four neighbour ``lines`` around it: ``(north,
    south, west, east)``, the row above the region, the row below, the
    column left of it and the column right of it, each a 1-D array that
    may sit in ``x`` itself, in a vector of boundary values or in a copy
    received from elsewhere.  ``source``, when given, is added to every
    new value.  Returns the array written.

    Every cell is computed from the values the region and the lines had
    before the call, with :func:`jacobi_update_region`'s two operation
    orders, so the result is bit for bit that function's on an array
    holding the region and its lines.  The compiled loop keeps two rows
    of per-thread scratch; the numpy path (the oracle, and the route
    for arrays that are not float64 with an inner stride of one
    element) goes through :func:`update_in_windows`."""
    target = lines_target(x, rows, cols, lines, out, source)
    if target.size == 0 or _compiled(x, weights, rows, cols, lines, target, source):
        return target

    def update(window, wrows, wcols, dst, corner):
        return jacobi_update_region(window, weights, wrows, wcols, out=dst)

    return update_in_windows(x, rows, cols, lines, target, source, update)


def update_in_windows(x, rows: slice, cols: slice, lines: Lines, out: np.ndarray,
                      source: np.ndarray | None, update) -> np.ndarray:
    """The numpy path of :func:`jacobi_update_lines`, for any weights:
    band by band, copy the band's old values and its neighbour lines
    into a small window (the row above the band is the previous band's
    last old row, kept in the window) and run the out-of-place
    ``update(window, rows, cols, dst, corner)`` on it into ``dst``, the
    band's rows of ``out``; ``corner`` is the ``(row, col)`` of ``x``
    at ``window[0, 0]``.  ``source`` is added band by band."""
    r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
    north, south, west, east = lines
    width = c1 - c0
    height = max(1, WINDOW_CELLS // (width + 2))
    cells = (min(height, r1 - r0) + 2) * (width + 2)
    window = _thread_scratch("window", cells)[:cells].reshape(-1, width + 2)
    window[0, 1:-1] = north
    for b0 in range(r0, r1, height):
        b1 = min(b0 + height, r1)
        band = window[: b1 - b0 + 2]
        band[1:-1, 1:-1] = x[b0:b1, c0:c1]
        band[-1, 1:-1] = x[b1, c0:c1] if b1 < r1 else south
        band[1:-1, 0] = west[b0 - r0 : b1 - r0]
        band[1:-1, -1] = east[b0 - r0 : b1 - r0]
        dst = out[b0 - r0 : b1 - r0]
        update(band, slice(1, b1 - b0 + 1), slice(1, width + 1), dst, (b0 - 1, c0 - 1))
        if source is not None:
            dst += source[b0 - r0 : b1 - r0]
        window[0, 1:-1] = band[-2, 1:-1]  # the next band's north: this one's last old row
    return out


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
