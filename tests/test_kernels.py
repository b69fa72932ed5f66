"""Stencil kernels: weights, the compiled update and its numpy oracle, FLOP accounting."""

import shutil
import sys
import threading
import warnings
from contextlib import contextmanager, nullcontext

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.distgrid.boundary import DirichletBC
from repro.stencil import kernels, variable
from repro.stencil.kernels import (
    FLOP_PER_POINT,
    StencilWeights,
    jacobi_update_lines,
    jacobi_update_region,
    region_flops,
)
from repro.stencil.reference import jacobi_reference
from repro.stencil.variable import (
    VariableStencilWeights,
    apply_stencil_lines,
    jacobi_update_region_variable,
)


def test_default_weights_are_laplace_jacobi():
    w = StencilWeights()
    assert w.center == 0.0
    assert w.north == w.south == w.west == w.east == 0.25


def test_damped_jacobi_weights():
    w = StencilWeights.damped_jacobi(0.8)
    assert w.center == pytest.approx(0.2)
    assert w.north == pytest.approx(0.2)
    with pytest.raises(ValueError):
        StencilWeights.damped_jacobi(0.0)


def test_heat_weights_stability_guard():
    w = StencilWeights.heat_explicit(0.25)
    assert w.center == pytest.approx(0.0)
    with pytest.raises(ValueError):
        StencilWeights.heat_explicit(0.3)


def test_update_region_matches_naive_loop():
    rng = np.random.default_rng(3)
    ext = rng.normal(size=(7, 9))
    w = StencilWeights.damped_jacobi(0.7)
    got = jacobi_update_region(ext, w, slice(2, 5), slice(1, 8))
    wc, wn, ws, ww, we = w.as_tuple()
    for r in range(2, 5):
        for c in range(1, 8):
            want = (wc * ext[r, c] + wn * ext[r - 1, c] + ws * ext[r + 1, c]
                    + ww * ext[r, c - 1] + we * ext[r, c + 1])
            assert got[r - 2, c - 1] == pytest.approx(want, rel=1e-15)


def test_update_region_does_not_modify_input():
    ext = np.ones((5, 5))
    before = ext.copy()
    jacobi_update_region(ext, StencilWeights(), slice(1, 4), slice(1, 4))
    assert np.array_equal(ext, before)


def test_update_region_needs_neighbour_ring():
    ext = np.ones((5, 5))
    with pytest.raises(IndexError):
        jacobi_update_region(ext, StencilWeights(), slice(0, 4), slice(1, 4))
    with pytest.raises(IndexError):
        jacobi_update_region(ext, StencilWeights(), slice(1, 5), slice(1, 4))


def test_update_region_out_parameter():
    ext = np.random.default_rng(0).normal(size=(6, 6))
    out = np.empty((4, 4))
    got = jacobi_update_region(ext, StencilWeights(), slice(1, 5), slice(1, 5), out=out)
    assert got is out


def test_empty_region():
    ext = np.ones((5, 5))
    got = jacobi_update_region(ext, StencilWeights(), slice(2, 2), slice(1, 4))
    assert got.shape == (0, 3)


def test_framed_sweep_preserves_frame():
    """One reference sweep of zeros inside a frame of ones: the boundary
    stays outside the returned grid, whose corner cells (two boundary
    neighbours) get 0.5 and edge cells 0.25."""
    grid = np.zeros((4, 4))
    swept = jacobi_reference(grid, StencilWeights(), 1, DirichletBC(1.0))
    assert swept.shape == (4, 4) and not grid.any()
    assert swept[0, 0] == swept[-1, -1] == 0.5
    assert swept[0, 1] == swept[1, -1] == 0.25 and swept[1, 1] == 0.0
    with pytest.raises(ValueError):
        jacobi_reference(np.zeros(4), StencilWeights(), 1)


def test_region_flops():
    assert region_flops(slice(0, 4), slice(0, 5)) == FLOP_PER_POINT * 20
    assert region_flops((0, 4), (0, 5)) == FLOP_PER_POINT * 20
    assert region_flops((3, 3), (0, 5)) == 0
    assert FLOP_PER_POINT == 9  # paper's 5 multiplies + 4 adds


# -- the compiled kernel and its numpy oracle: bit-identity ---------------


@contextmanager
def numpy_kernel():
    """Run updates on the numpy path, as a host without a compiler does."""
    saved, kernels._lib = kernels._lib, None
    try:
        yield
    finally:
        kernels._lib = saved


#: The loaded kernel (C where it built) and the numpy oracle.
KERNELS = (nullcontext, numpy_kernel)


@contextmanager
def band_cells(cells):
    """Shrink the variable path's band so toy-sized regions straddle
    several bands."""
    saved = variable.BAND_CELLS
    variable.BAND_CELLS = cells
    try:
        yield
    finally:
        variable.BAND_CELLS = saved


def wide_range_values(seed, shape):
    """|x| in {0} U [2^-500, 2^500], either sign (zeros of both signs)."""
    rng = np.random.default_rng(seed)
    x = np.ldexp(rng.uniform(1.0, 2.0, shape), rng.integers(-500, 500, shape))
    x *= rng.choice([-1.0, 1.0], shape)
    x[rng.random(shape) < 0.1] = 0.0
    x[rng.random(shape) < 0.05] = -0.0
    return x


def nine_terms(ext, wts, rows, cols):
    """The paper's update, one explicit left-to-right expression."""
    r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
    wc, wn, ws, ww, we = wts
    return ((((wc * ext[r0:r1, c0:c1] + wn * ext[r0 - 1 : r1 - 1, c0:c1])
              + ws * ext[r0 + 1 : r1 + 1, c0:c1])
             + ww * ext[r0:r1, c0 - 1 : c1 - 1])
            + we * ext[r0:r1, c0 + 1 : c1 + 1])


def call_forms(ext, rows, cols):
    """``out=None``, a contiguous ``out`` and a strided-view ``out``;
    yields ``(out, check)`` where ``check(got)`` verifies where the
    result went."""
    def fresh(got):
        assert got.base is None and got.flags.c_contiguous

    yield None, fresh

    contiguous = np.full(
        (rows.stop - rows.start, cols.stop - cols.start), np.nan)

    def same_array(got):
        assert got is contiguous

    yield contiguous, same_array

    new = np.full(ext.shape, np.nan)
    view = new[rows, cols]

    def same_view(got):
        assert got is view
        outside = np.ones(ext.shape, dtype=bool)
        outside[rows, cols] = False
        assert np.isnan(new[outside]).all()  # nothing written around it

    yield view, same_view


@st.composite
def regions(draw):
    height = draw(st.integers(3, 24))
    width = draw(st.integers(3, 24))
    r0 = draw(st.integers(1, height - 2))
    r1 = draw(st.integers(r0 + 1, height - 1))
    c0 = draw(st.integers(1, width - 2))
    c1 = draw(st.integers(c0 + 1, width - 1))
    return (height, width), slice(r0, r1), slice(c0, c1)


def assert_bitwise(got, want, where=None):
    where = np.ones(want.shape, dtype=bool) if where is None else where
    assert got[where].tobytes() == want[where].tobytes()


@settings(max_examples=60, deadline=None)
@given(regions(), st.integers(0, 2**16), st.sampled_from([0.25, 0.5, 2.0**-5]))
def test_power_of_two_weights_equal_the_nine_term_update(region, seed, w):
    shape, rows, cols = region
    ext = wide_range_values(seed, shape)
    weights = StencilWeights(0.0, w, w, w, w)
    want = nine_terms(ext, weights.as_tuple(), rows, cols)
    before = ext.copy()
    for kernel in KERNELS:
        with kernel():
            for out, check in call_forms(ext, rows, cols):
                got = jacobi_update_region(ext, weights, rows, cols, out=out)
                check(got)
                assert np.array_equal(got, want)
                # ...and bit for bit, except possibly the sign of a zero.
                assert_bitwise(got, want, where=want != 0)
    assert ext.tobytes() == before.tobytes()


@settings(max_examples=40, deadline=None)
@given(regions(), st.integers(0, 2**16),
       st.sampled_from([StencilWeights(0.0, 0.2, 0.2, 0.2, 0.2),
                        StencilWeights.damped_jacobi(0.8),
                        StencilWeights.heat_explicit(0.2),
                        StencilWeights(0.0, 0.25, 0.25, 0.25, 0.5)]))
def test_other_weights_keep_the_nine_term_order_bitwise(region, seed, weights):
    shape, rows, cols = region
    ext = wide_range_values(seed, shape)
    want = nine_terms(ext, weights.as_tuple(), rows, cols)
    for kernel in KERNELS:
        with kernel():
            for out, check in call_forms(ext, rows, cols):
                got = jacobi_update_region(ext, weights, rows, cols, out=out)
                check(got)
                assert_bitwise(got, want)


WEIGHTS = [StencilWeights(), StencilWeights(0.0, 2.0**-5, 2.0**-5, 2.0**-5, 2.0**-5),
           StencilWeights(0.0, 0.2, 0.2, 0.2, 0.2), StencilWeights.damped_jacobi(0.8),
           StencilWeights(0.0, 0.25, 0.25, 0.25, 0.5)]


@st.composite
def shaped_regions(draw):
    """A region of one cell, one row, one column, one touching every
    edge of the neighbour ring, or any."""
    (height, width), rows, cols = draw(regions())
    kind = draw(st.sampled_from(["any", "cell", "row", "column", "edge"]))
    if kind in ("cell", "row"):
        rows = slice(rows.start, rows.start + 1)
    if kind in ("cell", "column"):
        cols = slice(cols.start, cols.start + 1)
    if kind == "edge":
        rows, cols = slice(1, height - 1), slice(1, width - 1)
    return (height, width), rows, cols


@settings(max_examples=150, deadline=None)
@given(shaped_regions(), st.integers(0, 2**16), st.sampled_from(WEIGHTS))
def test_c_kernel_equals_the_numpy_oracle_bit_for_bit(region, seed, weights):
    """``tobytes()`` equality, so the sign of an exact zero counts, on
    every call form (``out=None``, contiguous, a strided view)."""
    shape, rows, cols = region
    ext = wide_range_values(seed, shape)
    got = [jacobi_update_region(ext, weights, rows, cols, out=out)
           for out, _ in call_forms(ext, rows, cols)]
    with numpy_kernel():
        want = jacobi_update_region(ext, weights, rows, cols)
    assert all(g.tobytes() == want.tobytes() for g in got)


class CallSpy:
    """Stands in for the compiled library and records its calls."""

    def __init__(self, lib):
        self.calls = []
        for name in ("laplace_lines", "weighted_lines"):
            setattr(self, name, self.spy(getattr(lib, name), name))

    def spy(self, fn, name):
        def call(*args):
            self.calls.append(name)
            return fn(*args)
        return call


@pytest.mark.skipif(kernels._lib is None, reason="no compiled kernel on this host")
@pytest.mark.parametrize("weights", [StencilWeights(), StencilWeights.damped_jacobi(0.8)])
def test_unsupported_arrays_route_to_numpy(monkeypatch, weights):
    """Only float64 with an inner stride of one element reaches the C
    loop; anything else gets the numpy path's result, bit for bit."""
    spy = CallSpy(kernels._lib)
    monkeypatch.setattr(kernels, "_lib", spy)
    base = np.random.default_rng(4).normal(size=(9, 21))  # float32-safe
    region = (slice(1, 8), slice(1, 10))

    def oracle(ext, out=None):
        with numpy_kernel():
            return jacobi_update_region(ext, weights, *region, out=out)

    got = jacobi_update_region(base, weights, *region)
    assert spy.calls == ["laplace_lines" if weights == StencilWeights() else "weighted_lines"]
    assert got.tobytes() == oracle(base).tobytes()
    strided = np.full((7, 18), np.nan)[:, ::2]
    readonly = np.empty((7, 9))
    readonly.flags.writeable = False
    for ext, out in [(base.astype(np.float32), None),   # not float64
                     (base[:, ::2], None),               # inner stride 16
                     (np.asfortranarray(base), None),    # column-major
                     (base.astype(">f8"), None),         # not native
                     (base, strided),                    # strided out
                     (base, np.empty((7, 9), np.float32))]:
        spy.calls.clear()
        got = jacobi_update_region(ext, weights, *region, out=out)
        assert spy.calls == []
        want = oracle(ext, None if out is None else np.empty_like(out))
        assert got.tobytes() == want.tobytes()
    with pytest.raises(ValueError):  # numpy's own error, not a write
        jacobi_update_region(base, weights, *region, out=readonly)
    assert spy.calls == []


def test_weights_alone_select_the_operation_order():
    """Outside the exactness domain the two orders are told apart: a
    non-finite centre times a zero weight is NaN only where the centre
    is multiplied at all."""
    ext = np.ones((3, 3))
    ext[1, 1] = np.inf
    region = (slice(1, 2), slice(1, 2))
    assert jacobi_update_region(ext, StencilWeights(), *region)[0, 0] == 1.0
    fifth = StencilWeights(0.0, 0.2, 0.2, 0.2, 0.2)
    with np.errstate(invalid="ignore"):
        assert np.isnan(jacobi_update_region(ext, fifth, *region)[0, 0])


@pytest.mark.parametrize("shape,rows,cols", [
    ((302, 302), slice(1, 301), slice(1, 301)),  # 3 variable-path bands
    ((400, 3), slice(1, 399), slice(1, 2)),      # width 1
    ((3, 40002), slice(1, 2), slice(1, 40001)),  # one row wider than a band
])
def test_real_band_size_shapes(shape, rows, cols):
    """Large and thin regions: C == numpy bit for bit, and both equal
    the nine-term update -- as the variable path does at the real size
    of its row bands."""
    assert (rows.stop - rows.start) * (cols.stop - cols.start) > 0
    ext = wide_range_values(5, shape)
    for weights in (StencilWeights(), StencilWeights.damped_jacobi(0.7)):
        want = nine_terms(ext, weights.as_tuple(), rows, cols)
        results = []
        for kernel in KERNELS:
            with kernel():
                for out, check in call_forms(ext, rows, cols):
                    got = jacobi_update_region(ext, weights, rows, cols, out=out)
                    check(got)
                    assert_bitwise(got, want, where=want != 0)
                    results.append(got.tobytes())
        assert len(set(results)) == 1
        fields = VariableStencilWeights(*weights.as_tuple())
        got = jacobi_update_region_variable(ext, fields, rows, cols, (0, 0))
        assert_bitwise(got, want, where=want != 0)


def test_out_shape_is_checked_and_empty_region_returns_out():
    ext = np.ones((6, 6))
    with pytest.raises(ValueError, match="out has shape"):
        jacobi_update_region(ext, StencilWeights(), slice(1, 5), slice(1, 5),
                             out=np.empty((5, 4)))
    out = np.empty((0, 3))
    assert jacobi_update_region(ext, StencilWeights(), slice(2, 2), slice(1, 4),
                                out=out) is out


def test_scratch_is_per_thread():
    """Threads updating at once never share an accumulator (the
    variable path's band scratch) or an output (the C loop, which runs
    without the interpreter lock)."""
    ext = wide_range_values(9, (130, 130))
    rows = cols = slice(1, 129)
    weights = StencilWeights.damped_jacobi(0.6)
    fields = VariableStencilWeights(*weights.as_tuple())
    want = nine_terms(ext, weights.as_tuple(), rows, cols)
    results = []

    def work():
        for _ in range(50):
            results.append(jacobi_update_region(ext, weights, rows, cols))
            results.append(jacobi_update_region_variable(ext, fields, rows, cols, (0, 0)))

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with band_cells(512):
            threads = [threading.Thread(target=work) for _ in range(4)]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
                assert not th.is_alive()
    finally:
        sys.setswitchinterval(old)
    assert len(results) == 400
    assert all(got.tobytes() == want.tobytes() for got in results)


def test_framed_sweep_equals_the_nine_term_update():
    framed = wide_range_values(2, (9, 12))
    weights = StencilWeights.damped_jacobi(0.9)
    bc = DirichletBC(lambda r, c: framed[r + 1, c + 1])
    swept = jacobi_reference(framed[1:-1, 1:-1], weights, 1, bc)
    assert_bitwise(swept, nine_terms(framed, weights.as_tuple(), slice(1, 8), slice(1, 11)))


# -- the in-place update: C, its numpy oracle and the out-of-place update agree --


@contextmanager
def window_cells(cells):
    """Shrink the numpy in-place path's windows so toy regions straddle
    several of them."""
    saved = kernels.WINDOW_CELLS
    kernels.WINDOW_CELLS = cells
    try:
        yield
    finally:
        kernels.WINDOW_CELLS = saved


def ring_lines(x, rows, cols):
    """The four neighbour lines of ``x[rows, cols]`` as views of ``x``:
    unit-stride rows, strided columns."""
    r0, r1, c0, c1 = rows.start, rows.stop, cols.start, cols.stop
    return x[r0 - 1, c0:c1], x[r1, c0:c1], x[r0:r1, c0 - 1], x[r0:r1, c1]


def in_place_results(ext, rows, cols, update, source):
    """``update(x, lines, out)`` on a copy of ``ext`` three ways -- lines
    viewing the array, lines as separate vectors, into an ``out`` --
    each checked to touch nothing else; yields the new region values."""
    for separate in (False, True):
        x = ext.copy()
        lines = ring_lines(x, rows, cols)
        if separate:
            lines = tuple(line.copy() for line in lines)
        got = update(x, lines, None)
        assert got.base is x or got.base is x.base
        outside = np.ones(ext.shape, bool)
        outside[rows, cols] = False
        assert x[outside].tobytes() == ext[outside].tobytes()
        yield x[rows, cols].copy()
    x = ext.copy()
    out = np.full((rows.stop - rows.start, cols.stop - cols.start), np.nan)
    assert update(x, ring_lines(x, rows, cols), out) is out
    assert x.tobytes() == ext.tobytes()
    yield out


@settings(max_examples=150, deadline=None)
@given(shaped_regions(), st.integers(0, 2**16), st.sampled_from(WEIGHTS), st.booleans(),
       st.sampled_from([32768, 7]))
def test_in_place_c_numpy_and_out_of_place_agree_bit_for_bit(region, seed, weights, forced,
                                                             window):
    """``tobytes()`` equality -- the sign of an exact zero counts --
    between the out-of-place update plus source and the in-place one,
    compiled and numpy (in windows of any size), with lines from the
    array itself, from vectors and into an ``out``; and the same for
    variable weights, against the out-of-place variable update."""
    shape, rows, cols = region
    ext = wide_range_values(seed, shape)
    region_shape = (rows.stop - rows.start, cols.stop - cols.start)
    source = wide_range_values(seed + 1, region_shape) if forced else None
    want = jacobi_update_region(ext, weights, rows, cols)
    fields = VariableStencilWeights(*weights.as_tuple())
    want_variable = jacobi_update_region_variable(ext, fields, rows, cols, (0, 0))
    if source is not None:
        want += source
        want_variable += source
    with window_cells(window):
        for kernel in KERNELS:
            with kernel():
                for got in in_place_results(ext, rows, cols, lambda x, lines, out: (
                        jacobi_update_lines(x, weights, rows, cols, lines, out, source)),
                        source):
                    assert got.tobytes() == want.tobytes()
                for got in in_place_results(ext, rows, cols, lambda x, lines, out: (
                        apply_stencil_lines(x, fields, rows, cols, lines, (0, 0), out,
                                            source)), source):
                    assert got.tobytes() == want_variable.tobytes()


def test_in_place_sweeps_are_jacobi_not_gauss_seidel():
    """Sweeping one array in place twice is two out-of-place sweeps:
    each row is computed from the previous sweep's values above it."""
    ext = wide_range_values(3, (40, 33))
    rows, cols = slice(1, 39), slice(1, 32)
    weights = StencilWeights.damped_jacobi(0.7)
    want = ext.copy()
    for _ in range(2):
        want[rows, cols] = jacobi_update_region(want, weights, rows, cols)
    for kernel in KERNELS:
        with kernel(), window_cells(64):
            x = ext.copy()
            for _ in range(2):
                jacobi_update_lines(x, weights, rows, cols, ring_lines(x, rows, cols))
            assert x.tobytes() == want.tobytes()


def test_in_place_lines_are_checked():
    x = np.ones((5, 6))
    rows, cols = slice(1, 4), slice(1, 5)
    lines = ring_lines(x, rows, cols)
    with pytest.raises(ValueError, match="neighbour lines"):
        jacobi_update_lines(x, StencilWeights(), rows, cols, lines[:3] + (np.ones(4),))
    with pytest.raises(IndexError):
        jacobi_update_lines(x, StencilWeights(), slice(3, 6), cols, lines)
    with pytest.raises(ValueError, match="source"):
        jacobi_update_lines(x, StencilWeights(), rows, cols, lines, source=np.ones((3, 3)))
    empty = jacobi_update_lines(x, StencilWeights(), slice(2, 2), cols,
                                (np.ones(4), np.ones(4), np.ones(0), np.ones(0)))
    assert empty.shape == (0, 4)


@pytest.mark.skipif(kernels._lib is None, reason="no compiled kernel on this host")
@pytest.mark.parametrize("weights", [StencilWeights(), StencilWeights.damped_jacobi(0.8)])
def test_unsupported_arrays_route_the_in_place_update_to_numpy(monkeypatch, weights):
    """Only float64 arrays with an inner stride of one element reach
    the in-place C loop (lines of any layout are gathered for it);
    anything else gets the numpy path's result, bit for bit."""
    spy = CallSpy(kernels._lib)
    monkeypatch.setattr(kernels, "_lib", spy)
    base = np.random.default_rng(4).normal(size=(9, 21))  # float32-safe
    rows, cols = slice(1, 8), slice(1, 10)
    name = "laplace_lines" if weights == StencilWeights() else "weighted_lines"

    def update(make, out=None, lines=None):
        x = make()
        lines = ring_lines(x, rows, cols) if lines is None else lines
        return jacobi_update_lines(x, weights, rows, cols, lines,
                                   None if out is None else out.copy()).copy()

    def oracle(make, out=None, lines=None):
        with numpy_kernel():
            return update(make, out, lines)

    odd_lines = tuple(line.astype(np.float32) for line in ring_lines(base, rows, cols))
    for out, lines in [(None, None), (None, odd_lines),
                       (np.full((14, 9), np.nan)[::2], None)]:  # strided out rows
        spy.calls.clear()
        assert update(base.copy, out, lines).tobytes() == oracle(base.copy, out, lines).tobytes()
        assert spy.calls == [name]
    for make in [lambda: base.astype(np.float32),   # not float64
                 lambda: base.copy()[:, ::2],         # inner stride 16
                 lambda: np.asfortranarray(base),     # column-major
                 lambda: base.astype(">f8")]:         # not native
        spy.calls.clear()
        assert update(make).tobytes() == oracle(make).tobytes()
        assert spy.calls == []


# -- building and loading the C kernel -------------------------------------


@pytest.mark.skipif(shutil.which(kernels._CC) is None, reason="no C compiler")
def test_kernel_builds_once_per_source_and_compiler(tmp_path, monkeypatch):
    monkeypatch.setattr(kernels, "_CACHE_DIR", str(tmp_path / "kernels"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert kernels._load() is not None  # cold: compiled and published
        (built,) = (tmp_path / "kernels").iterdir()
        assert built.suffix == ".so"

        def no_process(*args, **kwargs):
            raise AssertionError(f"a warm load ran {args}")

        # warm: loaded from the cache, with no compiler run at all
        monkeypatch.setattr(kernels.subprocess, "run", no_process)
        assert kernels._load() is not None
    assert [p.name for p in (tmp_path / "kernels").iterdir()] == [built.name]


def solve(weights):
    from repro.core.runner import run
    from repro.machine.machine import nacl
    from repro.stencil.problem import JacobiProblem

    problem = JacobiProblem(n=40, iterations=5, weights=weights, init=0.5)
    return run(problem, nacl(2), impl="ca-parsec", tile=10, steps=2, backend="threads")


@pytest.mark.parametrize("broken", ["no compiler", "unwritable cache"])
def test_a_failed_build_falls_back_to_numpy_with_one_warning(tmp_path, monkeypatch,
                                                            broken):
    """No ``cc``, or a cache directory that cannot be made: the numpy
    path runs, one warning says so, and the grids do not move."""
    if broken == "no compiler":
        monkeypatch.setattr(kernels, "_CC", str(tmp_path / "no-such-cc"))
    else:
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(kernels, "_CACHE_DIR", str(tmp_path / "file" / "kernels"))
    weights = (StencilWeights(), StencilWeights.damped_jacobi(0.8))
    loaded = [solve(w) for w in weights]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        monkeypatch.setattr(kernels, "_lib", kernels._load())
        fallback = [solve(w) for w in weights]
    assert kernels._lib is None and kernels.active_kernel() == "numpy"
    assert [str(w.message).endswith("updates run the numpy kernel") for w in caught] == [True]
    assert caught[0].category is RuntimeWarning
    for before, after in zip(loaded, fallback):
        assert after.params["kernel"] == "numpy"
        assert before.params == {**after.params, "kernel": before.params["kernel"]}
        assert after.grid.tobytes() == before.grid.tobytes()


def test_a_run_records_which_kernel_ran():
    result = solve(StencilWeights())
    assert result.params["kernel"] == kernels.active_kernel()
    if shutil.which(kernels._CC) is not None:
        assert result.params["kernel"] == "c"
    from repro.core.runner import run
    from repro.stencil.problem import JacobiProblem

    assert "kernel" not in run(JacobiProblem(n=40, iterations=2), mode="simulate").params
