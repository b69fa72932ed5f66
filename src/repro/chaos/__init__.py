"""repro.chaos -- fault injection and checkpoint/restart recovery.

Resilience as a first-class, *testable* property of the runtime: a
seeded :class:`FaultPlan` (kill-node, delay-task, slow-node,
drop-message) replays identically on the simulator, the thread pool
and the process mesh, because faults fire as pure functions of task
identity ``(node, global iteration)`` rather than schedule order.
Recovery restarts the run on the survivors, freshly partitioned, from
the latest grid checkpoint at a CA exchange boundary, and -- Jacobi being
elementwise -- reproduces the fault-free answer *bit-identically*,
which is exactly what the property suite pins.

Entry points
------------
* :func:`parse_plan` / :func:`random_plan` -- build a plan from the
  CLI grammar or a seed;
* :func:`run_with_recovery` -- run a problem under a plan with
  checkpoint-restart recovery (the ``repro chaos`` command);
* :class:`ChaosContext` -- the runner hook (``run(..., chaos=ctx)``);
* :class:`CheckpointStore` -- the on-disk checkpoint format (the
  rectangles each task wrote, complete once they cover the grid);
* :func:`execute_with_resume` -- the serve integration (one attempt,
  resuming from the job signature's latest checkpoint).
"""

from ..runtime.report import KernelError, NodeLostError
from .checkpoint import CheckpointError, CheckpointStore
from .harness import (
    ChaosContext,
    ChaosResult,
    GridInit,
    KILL_EXIT_CODE,
    execute_with_resume,
    run_with_recovery,
)
from .inject import FaultInjector
from .plan import (
    DEFAULT_DELAY_S,
    DEFAULT_RETRANSMIT_S,
    DEFAULT_SLOW_FACTOR,
    FAULT_KINDS,
    Fault,
    FaultPlan,
    PlanError,
    parse_plan,
    random_plan,
)

__all__ = [
    "DEFAULT_DELAY_S",
    "DEFAULT_RETRANSMIT_S",
    "DEFAULT_SLOW_FACTOR",
    "FAULT_KINDS",
    "KILL_EXIT_CODE",
    "ChaosContext",
    "ChaosResult",
    "CheckpointError",
    "CheckpointStore",
    "Fault",
    "FaultInjector",
    "FaultPlan",
    "GridInit",
    "KernelError",
    "NodeLostError",
    "PlanError",
    "execute_with_resume",
    "parse_plan",
    "random_plan",
    "run_with_recovery",
]
