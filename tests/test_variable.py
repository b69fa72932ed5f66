"""Variable-coefficient stencils across the whole stack."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.runner import run
from repro.distgrid.boundary import DirichletBC
from repro.machine.machine import nacl
from repro.stencil.kernels import StencilWeights, jacobi_update_region
from repro.stencil.problem import JacobiProblem
from repro.stencil.reference import jacobi_reference
from repro.stencil.variable import (
    VariableStencilWeights,
    apply_stencil_lines,
    jacobi_update_region_variable,
)


def wavy():
    return VariableStencilWeights(
        center=lambda r, c: 0.1 + 0.01 * r,
        north=lambda r, c: 0.2 + 0.02 * np.sin(c),
        south=0.2,
        west=lambda r, c: 0.15 + 0.001 * c,
        east=0.25,
    )


def variable_problem(n=24, T=6, seed=0):
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=(n, n))
    return JacobiProblem(
        n=n, iterations=T,
        init=lambda r, c: vals[np.clip(r, 0, n - 1), np.clip(c, 0, n - 1)],
        bc=DirichletBC(lambda r, c: 0.3 * r - 0.1 * c),
        weights=wavy(),
    )


def test_constant_fields_reduce_to_constant_weights():
    ext = np.random.default_rng(1).normal(size=(8, 8))
    const = StencilWeights.damped_jacobi(0.8)
    var = VariableStencilWeights(*const.as_tuple())
    a = jacobi_update_region(ext, const, slice(1, 7), slice(1, 7))
    b = jacobi_update_region_variable(ext, var, slice(1, 7), slice(1, 7), origin=(0, 0))
    assert np.allclose(a, b, rtol=1e-15)


def test_origin_shifts_coefficients():
    ext = np.ones((5, 5))
    w = VariableStencilWeights(center=lambda r, c: r * 1.0, north=0, south=0,
                               west=0, east=0)
    at0 = jacobi_update_region_variable(ext, w, slice(1, 4), slice(1, 4), origin=(0, 0))
    at10 = jacobi_update_region_variable(ext, w, slice(1, 4), slice(1, 4), origin=(10, 0))
    assert np.allclose(at10 - at0, 10.0)


def test_apply_stencil_lines_dispatch():
    """Constant weights ignore the origin, variable ones are evaluated
    at it; anything else is refused."""
    ext = np.random.default_rng(2).normal(size=(6, 6))
    rows, cols = slice(1, 5), slice(1, 5)
    lines = (ext[0, 1:5], ext[5, 1:5], ext[1:5, 0], ext[1:5, 5])
    const = StencilWeights()
    got = apply_stencil_lines(ext.copy(), const, rows, cols, lines, origin=(3, 3))
    assert np.array_equal(got, jacobi_update_region(ext, const, rows, cols))
    var = wavy()
    got = apply_stencil_lines(ext.copy(), var, rows, cols, lines, origin=(3, 3))
    want = jacobi_update_region_variable(ext, var, rows, cols, origin=(3, 3))
    assert got.tobytes() == want.tobytes()
    with pytest.raises(TypeError):
        apply_stencil_lines(ext, object(), rows, cols, lines, (0, 0))


def test_field_shape_validated():
    w = VariableStencilWeights(center=lambda r, c: np.zeros(3))
    with pytest.raises(ValueError):
        w.evaluate(np.zeros((2, 2)), np.zeros((2, 2)))


def test_all_implementations_agree_on_variable_weights():
    prob = variable_problem()
    ref = prob.reference_solution()
    m = nacl(4)
    base = run(prob, impl="base-parsec", machine=m, tile=4, mode="execute")
    ca = run(prob, impl="ca-parsec", machine=m, tile=4, steps=3, mode="execute")
    petsc = run(prob, impl="petsc", machine=m, mode="execute")
    assert np.array_equal(base.grid, ref)
    assert np.array_equal(ca.grid, ref)
    assert np.allclose(petsc.grid, ref, rtol=1e-12)


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 5), st.integers(0, 2**16))
def test_ca_variable_property(steps, seed):
    prob = variable_problem(n=20, T=7, seed=seed)
    ref = prob.reference_solution()
    ca = run(prob, impl="ca-parsec", machine=nacl(4), tile=5, steps=steps,
             mode="execute")
    assert np.array_equal(ca.grid, ref)


def test_from_diffusivity_conserves_flat_field():
    """With row-sum-1 weights, a constant temperature away from the
    boundary is stationary."""
    w = VariableStencilWeights.from_diffusivity(
        lambda r, c: 1.0 + 0.3 * np.cos(0.2 * r * c), dt_h2=0.15
    )
    grid = np.full((12, 12), 5.0)
    out = jacobi_reference(grid, w, 3, DirichletBC(5.0))
    assert np.allclose(out, 5.0, atol=1e-12)
    with pytest.raises(ValueError):
        VariableStencilWeights.from_diffusivity(lambda r, c: r, dt_h2=0.0)


def test_heterogeneous_diffusion_slows_in_low_kappa_region():
    """Physics check: heat crosses a high-diffusivity half faster."""
    def kappa(r, c):
        return np.where(np.asarray(c) < 10, 1.0, 0.05)

    w = VariableStencilWeights.from_diffusivity(kappa, dt_h2=0.2)
    grid = np.zeros((20, 20))
    grid[9:11, 9:11] = 100.0  # source at the interface
    out = jacobi_reference(grid, w, 40, DirichletBC(0.0))
    fast_side = out[10, 4]  # 5 cells into the k=1.0 half
    slow_side = out[10, 15]  # 5 cells into the k=0.05 half
    assert fast_side > 5 * slow_side


def test_extra_traffic_estimate():
    assert VariableStencilWeights.bytes_per_point_extra() == 40


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**16), st.sampled_from([1, 9, 50, 10**6]))
def test_banded_variable_update_keeps_the_operation_order_bitwise(seed, cells):
    """``out=None``, contiguous ``out`` and strided-view ``out`` all
    equal the explicit left-to-right expression, band edges included."""
    from repro.stencil import variable

    rng = np.random.default_rng(seed)
    ext = rng.normal(size=(14, 11))
    rows, cols, origin = slice(2, 13), slice(1, 9), (5, -3)
    gr, gc = np.meshgrid(np.arange(7, 18), np.arange(-2, 6), indexing="ij")
    wc, wn, ws, ww, we = wavy().evaluate(gr, gc)
    want = ((((wc * ext[2:13, 1:9] + wn * ext[1:12, 1:9]) + ws * ext[3:14, 1:9])
             + ww * ext[2:13, 0:8]) + we * ext[2:13, 2:10])
    new = np.full(ext.shape, np.nan)
    saved = variable.BAND_CELLS
    variable.BAND_CELLS = cells
    try:
        for out in (None, np.empty((11, 8)), new[rows, cols]):
            got = jacobi_update_region_variable(ext, wavy(), rows, cols, origin, out=out)
            assert out is None or got is out
            assert got.tobytes() == want.tobytes()
    finally:
        variable.BAND_CELLS = saved
    assert np.isnan(new[:2]).all() and np.isnan(new[:, 9:]).all()
    empty = np.empty((0, 8))
    assert jacobi_update_region_variable(
        ext, wavy(), slice(3, 3), cols, origin, out=empty) is empty
