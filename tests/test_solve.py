"""Convergence-driven solves (``examples/convergence_solve.py``)."""

import pathlib
import sys

import numpy as np
import pytest

from repro.distgrid.boundary import DirichletBC
from repro.machine.machine import nacl
from repro.stencil.problem import JacobiProblem
from repro.stencil.reference import jacobi_reference

from .test_source_term import poisson_problem

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "examples"))
from convergence_solve import solve_to_tolerance  # noqa: E402


def laplace_problem(n=24):
    return JacobiProblem(n=n, iterations=0, init=0.0, bc=DirichletBC(1.0))


def test_converges_to_constant_boundary():
    res = solve_to_tolerance(
        laplace_problem(), nacl(4), impl="base-parsec", tol=1e-6,
        check_every=100, max_iterations=5000, tile=6,
    )
    assert res.converged
    # residual 1e-6 => error ~1e-6/(1-rho) ~ 1e-4 on this grid
    assert np.allclose(res.grid, 1.0, atol=1e-3)
    assert res.residual_norms[-1] <= 1e-6
    assert res.model_elapsed > 0 and res.messages > 0


def test_chunked_equals_unchunked():
    """Restarting the task graph every chunk must not change the bits
    (Jacobi is memoryless)."""
    prob, _ = poisson_problem(n=20, iterations=0)
    res = solve_to_tolerance(
        prob, nacl(4), impl="ca-parsec", tol=0.0 + 1e-300,
        check_every=7, max_iterations=21, tile=5, steps=3,
    )
    direct = jacobi_reference(
        prob.initial_grid(), prob.weights, 21, prob.bc, source=prob.source_grid()
    )
    assert res.iterations == 21
    assert np.array_equal(res.grid, direct)


def test_poisson_time_to_solution():
    prob, u_exact = poisson_problem(n=31, iterations=0)
    res = solve_to_tolerance(
        prob, nacl(4), impl="ca-parsec", tol=1e-7,
        check_every=200, max_iterations=8000, tile=8, steps=7,
    )
    assert res.converged
    assert np.max(np.abs(res.grid - u_exact)) < 5e-3
    # Residuals decrease monotonically for this contraction.
    assert all(b < a for a, b in zip(res.residual_norms, res.residual_norms[1:]))


def test_max_iterations_cap():
    res = solve_to_tolerance(
        laplace_problem(), nacl(4), impl="base-parsec", tol=1e-300,
        check_every=10, max_iterations=25, tile=6,
    )
    assert not res.converged
    assert res.iterations == 25  # 10 + 10 + 5 (final partial chunk)


def test_already_converged_initial_guess():
    prob = JacobiProblem(n=8, iterations=0, init=2.0, bc=DirichletBC(2.0))
    res = solve_to_tolerance(prob, nacl(1), tol=1e-12, tile=4)
    assert res.converged and res.iterations == 0 and res.messages == 0


def test_ca_steps_capped_to_chunk():
    res = solve_to_tolerance(
        laplace_problem(), nacl(4), impl="ca-parsec", tol=1e-4,
        check_every=4, max_iterations=2000, tile=6, steps=50,
    )
    assert res.converged  # would raise inside the builder if not capped


def test_validation():
    with pytest.raises(ValueError):
        solve_to_tolerance(laplace_problem(), nacl(1), tol=0.0)
    with pytest.raises(ValueError):
        solve_to_tolerance(laplace_problem(), nacl(1), tol=1e-3, check_every=0)
