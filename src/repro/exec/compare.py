"""Side-by-side simulated-vs-measured execution reports.

The simulator predicts how a task graph behaves on a *modelled*
cluster; the threaded backend measures how the same graph behaves on
the actual host.  This module runs both and lines the numbers up --
predicted vs achieved GFLOP/s, modelled vs measured worker occupancy,
and base-vs-CA speedups on both clocks -- which is the validation
loop the simulator's calibration ultimately answers to.

Two caveats the report states rather than hides:

* absolute wall-clock time matches the model only when the machine
  spec describes the actual host; against a cluster preset like NaCL
  the interesting quantity is the *ratio* structure (CA over base,
  scaling with workers), which is machine-portable;
* Python task-dispatch overhead is real and counted in the measured
  numbers -- exactly the per-task runtime overhead the paper's
  PaRSEC configuration also pays.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..machine.machine import MachineSpec, nacl
from ..stencil.problem import JacobiProblem


@dataclass(frozen=True)
class BackendComparison:
    """One implementation, simulated and measured."""

    impl: str
    sim: object  # RunResult (sim backend)
    real: object  # RunResult (threads or processes backend)
    jobs: int
    backend: str = "threads"

    @property
    def predicted_elapsed(self) -> float:
        return self.sim.elapsed

    @property
    def measured_elapsed(self) -> float:
        return self.real.elapsed

    @property
    def predicted_gflops(self) -> float:
        return self.sim.gflops

    @property
    def achieved_gflops(self) -> float:
        return self.real.gflops

    @property
    def predicted_occupancy(self) -> float:
        return self.sim.occupancy()

    @property
    def measured_occupancy(self) -> float:
        return self.real.occupancy()

    @property
    def prediction_error(self) -> float:
        """Relative elapsed-time error, signed: positive means the real
        run was slower than the model predicted."""
        if self.predicted_elapsed <= 0:
            return float("inf")
        return (self.measured_elapsed - self.predicted_elapsed) / self.predicted_elapsed

    def as_row(self) -> tuple:
        return (
            self.impl,
            f"{self.predicted_elapsed * 1e3:.2f}",
            f"{self.measured_elapsed * 1e3:.2f}",
            f"{self.predicted_gflops:.3f}",
            f"{self.achieved_gflops:.3f}",
            f"{self.predicted_occupancy:.2f}",
            f"{self.measured_occupancy:.2f}",
            f"{100 * self.prediction_error:+.1f}%",
        )


#: Table headers matching :meth:`BackendComparison.as_row`.
HEADERS = (
    "impl",
    "model ms",
    "wall ms",
    "model GF/s",
    "real GF/s",
    "model occ",
    "real occ",
    "elapsed err",
)


def compare_backends(
    problem: JacobiProblem,
    impl: str = "ca-parsec",
    machine: MachineSpec | None = None,
    jobs: int | None = None,
    policy: str = "priority",
    backend: str = "threads",
    procs: int | None = None,
    **kwargs,
) -> BackendComparison:
    """Run ``impl`` once on the simulator (execute mode, so the virtual
    clock covers the identical graph) and once for real on ``backend``
    (``"threads"`` or ``"processes"``; ``procs`` selects the process
    count of the latter and sizes the simulated machine to match)."""
    from ..core.runner import run  # local import: core depends on exec

    if machine is None:
        machine = nacl(procs) if (backend == "processes" and procs) else nacl(1)
    elif backend == "processes" and procs and procs != machine.nodes:
        machine = machine.with_nodes(procs)
    sim = run(
        problem, impl=impl, machine=machine, mode="execute", policy=policy, **kwargs
    )
    real = run(
        problem,
        impl=impl,
        machine=machine,
        backend=backend,
        jobs=jobs,
        policy=policy,
        **kwargs,
    )
    return BackendComparison(
        impl=impl, sim=sim, real=real, jobs=real.params["jobs"], backend=backend
    )


def format_comparison(comparisons: list[BackendComparison], title: str | None = None) -> str:
    """Render the side-by-side as the repo's standard ASCII table."""
    from ..analysis.tables import format_table

    return format_table(
        HEADERS, [c.as_row() for c in comparisons], title=title
    )


__all__ = [
    "BackendComparison",
    "HEADERS",
    "compare_backends",
    "format_comparison",
]
