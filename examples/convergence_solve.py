#!/usr/bin/env python
"""Convergence-driven solves: iterate until the residual drops.

The paper runs fixed iteration counts (100) because it measures
throughput; an adopting user usually wants "iterate until converged".
This driver runs any implementation in chunks of ``check_every``
sweeps, monitors the stencil residual ``|x - S(x) - source|`` between
chunks, and aggregates both the numerics and the modelled performance
across chunks -- so you get time-to-solution in model seconds, not
just time-per-sweep.  It is built on the public ``run()`` only, which
is why it lives here and not in the package (``tests/test_solve.py``
drives it).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from repro.core.runner import run
from repro.distgrid.boundary import DirichletBC
from repro.machine.machine import MachineSpec, nacl
from repro.stencil.problem import JacobiProblem
from repro.stencil.reference import residual_norm


@dataclass
class SolveResult:
    """Outcome of :func:`solve_to_tolerance`."""

    grid: np.ndarray
    converged: bool
    iterations: int
    residual_norms: list[float] = field(default_factory=list)
    model_elapsed: float = 0.0  # summed virtual seconds across chunks
    messages: int = 0
    message_bytes: int = 0

    @property
    def final_residual(self) -> float:
        return self.residual_norms[-1] if self.residual_norms else float("nan")


def solve_to_tolerance(
    problem: JacobiProblem,
    machine: MachineSpec,
    impl: str = "ca-parsec",
    tol: float = 1e-6,
    check_every: int = 50,
    max_iterations: int = 10_000,
    **run_kwargs,
) -> SolveResult:
    """Iterate ``problem``'s sweep until the residual's infinity norm
    falls below ``tol`` (absolute), restarting the task graph every
    ``check_every`` sweeps from the previous chunk's grid.

    The chunked structure mirrors how fixed-point loops are actually
    deployed on task runtimes: convergence checks are global
    reductions, so they are amortised over many sweeps.  CA step sizes
    larger than ``check_every`` are capped to it.
    """
    if tol <= 0:
        raise ValueError("tolerance must be positive")
    if check_every < 1:
        raise ValueError("check_every must be >= 1")
    if "steps" in run_kwargs:
        run_kwargs["steps"] = min(run_kwargs["steps"], check_every)

    grid = problem.initial_grid()
    source = problem.source_grid()
    result = SolveResult(grid=grid, converged=False, iterations=0)
    res0 = residual_norm(grid, problem.weights, problem.bc, source)
    result.residual_norms.append(res0)
    if res0 <= tol:
        result.converged = True
        return result

    done = 0
    current = grid
    while done < max_iterations:
        chunk = min(check_every, max_iterations - done)
        chunk_values = current

        chunk_problem = replace(
            problem,
            iterations=chunk,
            init=lambda r, c, v=chunk_values: v[r, c],
        )
        res = run(chunk_problem, impl=impl, machine=machine, mode="execute",
                  **run_kwargs)
        current = res.grid
        done += chunk
        result.model_elapsed += res.elapsed
        result.messages += res.messages
        result.message_bytes += res.message_bytes
        rnorm = residual_norm(current, problem.weights, problem.bc, source)
        result.residual_norms.append(rnorm)
        if rnorm <= tol:
            result.converged = True
            break
    result.grid = current
    result.iterations = done
    return result


def main() -> None:
    problem = JacobiProblem(n=24, iterations=0, init=0.0, bc=DirichletBC(1.0))
    result = solve_to_tolerance(problem, nacl(4), impl="ca-parsec", tol=1e-6,
                                check_every=100, max_iterations=5000,
                                tile=6, steps=4)
    assert result.converged and np.allclose(result.grid, 1.0, atol=1e-3)
    print(f"converged in {result.iterations} sweeps: residual "
          f"{result.final_residual:.2e}, {result.model_elapsed * 1e3:.2f} model ms, "
          f"{result.messages} messages")


if __name__ == "__main__":
    main()
