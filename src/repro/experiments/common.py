"""Shared experiment plumbing: paper configurations and CI scaling.

Every experiment module regenerates one table or figure.  By default
runs are *scaled down in iterations only* (the spatial configuration
-- grid, tiles, node counts -- stays exactly the paper's, so
surface-to-volume and comm/compute ratios are preserved); setting
``REPRO_FULL=1`` restores the paper's 100 iterations.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..machine.machine import MachineSpec, nacl, stampede2
from ..stencil.problem import JacobiProblem


def full_mode() -> bool:
    """True when REPRO_FULL=1: run the paper-sized iteration counts."""
    return os.environ.get("REPRO_FULL", "0") not in ("", "0", "false", "False")


def iterations(default_scaled: int = 8, full: int = 100) -> int:
    """Sweep count of a run: ``full`` under REPRO_FULL, else ``default_scaled``."""
    return full if full_mode() else default_scaled


@dataclass(frozen=True)
class MachineSetup:
    """One of the two evaluation platforms with its paper parameters."""

    name: str
    problem_n: int  # strong-scaling grid (Figs 7-10)
    tile: int
    tuning_problem_n: int  # single-node tile-tuning grid (Fig 6)
    steps: int  # CA step size for Figs 7-8

    def machine(self, nodes: int) -> MachineSpec:
        return nacl(nodes) if self.name == "NaCL" else stampede2(nodes)

    def problem(self, its: int | None = None) -> JacobiProblem:
        return JacobiProblem(n=self.problem_n, iterations=its or iterations())

    def tuning_problem(self, its: int | None = None) -> JacobiProblem:
        """Single-node grid for Fig. 6.  The scaled variant halves the
        grid (same optimum: the plateau is a per-point property; only
        the starvation edge moves, and the sweep covers it)."""
        n = self.tuning_problem_n if full_mode() else self.tuning_problem_n // 2
        return JacobiProblem(n=n, iterations=its or iterations(4, 10))


#: The paper's two platforms and workload parameters (section VI).
NACL = MachineSetup(name="NaCL", problem_n=23040, tile=288, tuning_problem_n=20000, steps=15)
STAMPEDE2 = MachineSetup(
    name="Stampede2", problem_n=55296, tile=864, tuning_problem_n=27000, steps=15
)

SETUPS = (NACL, STAMPEDE2)

#: Node counts of the strong-scaling sweeps.
NODE_COUNTS = (4, 16, 64)

#: Kernel adjustment ratios of Figs 8-9.
RATIOS = (0.2, 0.4, 0.6, 0.8)

#: CA step sizes of Fig 9.
STEP_SIZES = (5, 15, 25, 40)


def setup_by_name(name: str) -> MachineSetup:
    """The platform in ``SETUPS`` called ``name`` (any case); KeyError if none."""
    for s in SETUPS:
        if s.name.lower() == name.lower():
            return s
    raise KeyError(f"unknown machine setup {name!r}")
