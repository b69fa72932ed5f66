"""The forcing/source term: real Poisson solves on the paper's
implementations."""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.runner import run
from repro.distgrid.boundary import DirichletBC
from repro.machine.machine import nacl
from repro.stencil.kernels import StencilWeights
from repro.stencil.problem import JacobiProblem
from repro.stencil.reference import jacobi_reference, residual_norm


def poisson_problem(n=31, iterations=8, omega=0.9):
    """Damped-Jacobi iteration for -Lap(u) = f with a manufactured f."""
    h = 1.0 / (n + 1)
    x = np.arange(1, n + 1) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    u_exact = np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    f = 5.0 * np.pi**2 * u_exact

    def source(r, c):
        return omega * h * h / 4.0 * f[np.clip(r, 0, n - 1), np.clip(c, 0, n - 1)]

    prob = JacobiProblem(
        n=n, iterations=iterations,
        weights=StencilWeights.damped_jacobi(omega),
        init=0.0, bc=DirichletBC(0.0), source=source,
    )
    return prob, u_exact


def test_source_constant_and_callable():
    p = JacobiProblem(n=4, iterations=1, source=2.5)
    assert np.all(p.source_grid() == 2.5)
    q = JacobiProblem(n=4, iterations=1, source=lambda r, c: 1.0 * r)
    assert q.source_grid()[3, 0] == 3.0
    assert JacobiProblem(n=4, iterations=1).source_grid() is None


def test_source_shape_validated():
    p = JacobiProblem(n=4, iterations=1, source=lambda r, c: np.zeros(2))
    with pytest.raises(ValueError):
        p.source_grid()
    with pytest.raises(ValueError):
        jacobi_reference(np.zeros((4, 4)), StencilWeights(), 1,
                         source=np.zeros((3, 3)))


def test_reference_adds_source_each_sweep():
    grid = np.zeros((3, 3))
    src = np.full((3, 3), 1.0)
    out = jacobi_reference(grid, StencilWeights(center=1.0, north=0, south=0,
                                                west=0, east=0),
                           3, DirichletBC(0.0), source=src)
    assert np.allclose(out, 3.0)  # identity sweep + 1 per iteration


def test_all_implementations_match_with_source():
    prob, _ = poisson_problem()
    ref = prob.reference_solution()
    m = nacl(4)
    base = run(prob, impl="base-parsec", machine=m, tile=8, mode="execute")
    ca = run(prob, impl="ca-parsec", machine=m, tile=8, steps=3, mode="execute")
    petsc = run(prob, impl="petsc", machine=m, mode="execute")
    assert np.array_equal(base.grid, ref)
    assert np.array_equal(ca.grid, ref)
    assert np.allclose(petsc.grid, ref, rtol=1e-12)


@settings(max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.integers(1, 5), st.integers(1, 9))
def test_ca_with_source_property(steps, iterations):
    prob, _ = poisson_problem(n=20, iterations=iterations)
    ca = run(prob, impl="ca-parsec", machine=nacl(4), tile=5, steps=steps,
             mode="execute")
    assert np.array_equal(ca.grid, prob.reference_solution())


def test_poisson_iteration_converges_to_pde_solution():
    prob, u_exact = poisson_problem(n=31, iterations=4000)
    sol = prob.reference_solution()
    # O(h^2) discretisation accuracy once converged.
    assert np.max(np.abs(sol - u_exact)) < 5e-3
    # And the converged iterate is (near) a fixed point.
    assert residual_norm(sol, prob.weights, prob.bc, prob.source_grid()) < 1e-6


def test_fixed_point_agrees_with_direct_solve():
    """Two independent solvers, one answer: the damped-Jacobi fixed
    point equals a direct sparse solve of the same 5-point system."""
    import scipy.sparse as sp
    from scipy.sparse.linalg import spsolve

    n = 31
    prob, _ = poisson_problem(n=n, iterations=6000)
    jacobi = prob.reference_solution()
    h = 1.0 / (n + 1)
    x = np.arange(1, n + 1) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    f = 5.0 * np.pi**2 * np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    second_difference = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    laplacian = (sp.kron(second_difference, eye) + sp.kron(eye, second_difference)) / h**2
    direct = spsolve(laplacian.tocsc(), f.ravel()).reshape(n, n)
    assert np.max(np.abs(jacobi - direct)) < 1e-5
