#!/usr/bin/env python
"""Solving a real PDE with the paper's distributed implementations.

Everything comes together: the damped-Jacobi iteration with a forcing
term turns the paper's stencil sweeps into an actual Poisson solver,
executed through the communication-avoiding task graph with real
numerics and modelled time.  We solve a manufactured problem, verify
the answer against the PDE's exact solution AND against a direct
sparse solve of the same discrete system, and report what CA saved
along the way.
"""

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import spsolve

import repro


def direct_solve(f: np.ndarray, h: float) -> np.ndarray:
    """-Lap(u) = f with zero Dirichlet data, 5-point stencil, by a
    sparse direct solve."""
    n = f.shape[0]
    second_difference = sp.diags([-1.0, 2.0, -1.0], [-1, 0, 1], shape=(n, n))
    eye = sp.identity(n)
    laplacian = (sp.kron(second_difference, eye) + sp.kron(eye, second_difference)) / h**2
    return spsolve(laplacian.tocsc(), f.ravel()).reshape(n, n)


def main() -> None:
    n = 63
    h = 1.0 / (n + 1)
    omega = 0.9
    x = np.arange(1, n + 1) * h
    X, Y = np.meshgrid(x, x, indexing="ij")
    u_exact = np.sin(np.pi * X) * np.sin(2 * np.pi * Y)
    f = 5.0 * np.pi**2 * u_exact

    def source(r, c):
        return omega * h * h / 4.0 * f[np.clip(r, 0, n - 1), np.clip(c, 0, n - 1)]

    sweeps = 4000
    problem = repro.JacobiProblem(
        n=n, iterations=sweeps,
        weights=repro.StencilWeights.damped_jacobi(omega),
        init=0.0, bc=repro.DirichletBC(0.0), source=source,
    )

    machine = repro.nacl(4)
    ca = repro.run(problem, impl="ca-parsec", machine=machine,
                   tile=16, steps=8, mode="execute")
    base_msgs = repro.run(problem, impl="base-parsec", machine=machine,
                          tile=16, mode="simulate").messages

    pde_err = float(np.max(np.abs(ca.grid - u_exact)))
    direct_err = float(np.max(np.abs(ca.grid - direct_solve(f, h))))

    print(f"Poisson -Lap(u) = f on a {n}x{n} grid, {sweeps} damped-Jacobi "
          "sweeps via CA-PaRSEC (real kernels):")
    print(f"  error vs exact PDE solution : {pde_err:.2e} "
          f"(O(h^2) = {h * h:.2e})")
    print(f"  error vs direct sparse solve: {direct_err:.2e} "
          f"(two independent solvers, one discrete answer)")
    print(f"  messages: {ca.messages} (base version would send "
          f"{base_msgs}; CA cut {1 - ca.messages / base_msgs:.0%} for "
          f"{ca.redundant_fraction:.1%} redundant work)")
    assert pde_err < 10 * h * h
    assert direct_err < 1e-4
    print("\nJacobi needed thousands of sweeps to reach the answer one "
          "direct solve gives -- exactly why the paper's kernel must be "
          "cheap: solvers built on it apply it relentlessly.")


if __name__ == "__main__":
    main()
