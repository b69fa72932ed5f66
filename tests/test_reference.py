"""Reference solver: convergence and analytic checks."""

import tracemalloc

import numpy as np
import pytest

from repro.distgrid.boundary import DirichletBC
from repro.stencil.kernels import StencilWeights
from repro.stencil.reference import jacobi_reference, residual_norm


def test_zero_iterations_identity():
    grid = np.random.default_rng(0).normal(size=(5, 7))
    out = jacobi_reference(grid, StencilWeights(), 0)
    assert np.array_equal(out, grid)
    assert out is not grid  # input untouched


def test_one_iteration_by_hand():
    grid = np.zeros((3, 3))
    grid[1, 1] = 4.0
    out = jacobi_reference(grid, StencilWeights(), 1, DirichletBC(0.0))
    # Centre averages four zeros; neighbours each see the 4.0 once.
    assert out[1, 1] == 0.0
    assert out[0, 1] == pytest.approx(1.0)
    assert out[1, 0] == pytest.approx(1.0)
    assert out[0, 0] == 0.0  # diagonal unaffected by 5-point stencil


def test_converges_to_boundary_value():
    """Laplace with constant Dirichlet boundary converges to that
    constant everywhere."""
    grid = np.zeros((6, 6))
    out = jacobi_reference(grid, StencilWeights(), 2000, DirichletBC(3.0))
    assert np.allclose(out, 3.0, atol=1e-6)


def test_harmonic_fixed_point():
    """A discrete harmonic function (x = a*r + b*c + d) is a fixed
    point of the Laplace Jacobi sweep with matching boundary."""
    n = 8
    rr, cc = np.meshgrid(np.arange(n), np.arange(n), indexing="ij")
    harmonic = 2.0 * rr - 3.0 * cc + 1.0
    bc = DirichletBC(lambda r, c: 2.0 * r - 3.0 * c + 1.0)
    out = jacobi_reference(harmonic, StencilWeights(), 50, bc)
    assert np.allclose(out, harmonic, atol=1e-10)
    assert residual_norm(harmonic, StencilWeights(), bc) == pytest.approx(0.0, abs=1e-12)


def test_heat_equation_decays():
    """Explicit heat steps with zero boundary shrink the max norm."""
    grid = np.random.default_rng(1).random((10, 10))
    w = StencilWeights.heat_explicit(0.2)
    out = jacobi_reference(grid, w, 200, DirichletBC(0.0))
    assert np.max(np.abs(out)) < 0.05 * np.max(np.abs(grid))


def test_validation():
    with pytest.raises(ValueError):
        jacobi_reference(np.zeros((3, 3)), StencilWeights(), -1)
    with pytest.raises(ValueError):
        jacobi_reference(np.zeros(9), StencilWeights(), 1)


def test_a_bad_source_is_rejected_before_anything_grid_sized_is_allocated():
    grid, source = np.zeros((256, 256)), np.zeros((256, 255))
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="source shape"):
            jacobi_reference(grid, StencilWeights(), 3, source=source)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < grid.nbytes // 4, peak
