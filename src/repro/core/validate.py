"""Cross-implementation validation helpers.

The reproduction's central numerical invariant: for any problem,
machine layout, tile size and step size,

    reference == base-PaRSEC == CA-PaRSEC(s)  (bit-exact)
    reference ~= PETSc                        (FP-association only)

(The SpMV accumulates the five weighted terms in CSR column order
rather than the kernel's fixed N/S/W/E order, so PETSc agrees to
rounding, not bit-for-bit.)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..machine.machine import MachineSpec, nacl
from ..stencil.problem import JacobiProblem
from .runner import run

#: FP-association tolerance for the SpMV path.
PETSC_RTOL = 1e-12


@dataclass(frozen=True)
class ValidationReport:
    """Max |error| of each implementation against the reference."""

    base_error: float
    ca_error: float
    petsc_error: float
    scale: float

    @property
    def ok(self) -> bool:
        tol = PETSC_RTOL * max(self.scale, 1.0)
        return (
            self.base_error == 0.0
            and self.ca_error == 0.0
            and self.petsc_error <= tol
        )


def validate_implementations(
    problem: JacobiProblem,
    machine: MachineSpec | None = None,
    tile: int = 8,
    steps: int = 3,
) -> ValidationReport:
    """Execute all three implementations on ``problem`` and compare to
    the single-array reference solver."""
    machine = machine or nacl(4)
    ref = problem.reference_solution()
    scale = float(np.max(np.abs(ref))) if ref.size else 0.0

    def error(impl: str) -> float:
        # Knobs an implementation has no use for are ignored by run().
        result = run(problem, machine, impl=impl, tile=tile, steps=steps,
                     mode="execute")
        return float(np.max(np.abs(result.grid - ref)))

    return ValidationReport(
        base_error=error("base-parsec"), ca_error=error("ca-parsec"),
        petsc_error=error("petsc"), scale=scale,
    )
