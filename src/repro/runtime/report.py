"""What every backend reports, and how a run fails: the run report the
simulator, the threaded executor and the process mesh fill alike, and
the two errors a kernel or a lost node raises through all of them.  A
module of its own so a real backend does not load the simulator."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..obs.metrics import MetricsSnapshot
from .task import TaskKey
from .trace import Trace


class KernelError(RuntimeError):
    """A task kernel raised during execution; the message carries the
    task identity so distributed failures are debuggable."""


class NodeLostError(KernelError):
    """A node was lost mid-run -- its process died, or a fault plan
    killed it.  Carries the lost node id and the last *complete*
    checkpoint step (None when no checkpoint exists), so a recovery
    layer can restart the remaining iterations on the survivors
    instead of rerunning from scratch.

    Subclasses :class:`KernelError` so every backend's existing
    pass-through of kernel failures propagates it untouched, and it
    pickles across the procs backend's control pipes.
    """

    def __init__(
        self,
        message: str,
        node: int | None = None,
        checkpoint_step: int | None = None,
    ) -> None:
        super().__init__(message)
        self.node = node
        self.checkpoint_step = checkpoint_step

    def __reduce__(self):
        return (self.__class__, (self.args[0], self.node, self.checkpoint_step))


@dataclass
class EngineReport:
    """Everything a run produces besides the payloads themselves."""

    elapsed: float
    tasks_run: int
    messages: int
    message_bytes: int
    local_edges: int
    local_bytes: int
    useful_flops: float
    redundant_flops: float
    node_busy: dict[int, float] = field(default_factory=dict)
    comm_busy: dict[int, float] = field(default_factory=dict)
    #: busy seconds per compute worker, one entry per worker of every
    #: node, keyed ``node * workers_per_node + worker``
    worker_busy: dict[int, float] = field(default_factory=dict)
    #: (src, dst) -> (messages delivered, declared payload bytes)
    by_pair: dict = field(default_factory=dict)
    #: deepest per-node communication-thread backlog observed; values
    #: much larger than 1 mean the comm thread was the bottleneck (the
    #: regime where communication avoiding pays).
    max_comm_backlog: int = 0
    trace: Trace | None = None
    results: dict[tuple[TaskKey, str], Any] = field(default_factory=dict)
    #: telemetry snapshot of the run, when a registry was attached
    metrics: MetricsSnapshot | None = None

    @property
    def gflops(self) -> float:
        """Useful GFLOP/s over the simulated elapsed time (redundant CA
        work is excluded, matching how the paper reports GFLOP/s for a
        fixed problem)."""
        if self.elapsed <= 0:
            return 0.0
        return self.useful_flops / self.elapsed / 1e9

    def occupancy(self, workers_per_node: int) -> float:
        """Mean compute-worker occupancy across nodes."""
        if not self.node_busy or self.elapsed <= 0:
            return 0.0
        total = sum(self.node_busy.values())
        return total / (len(self.node_busy) * workers_per_node * self.elapsed)
