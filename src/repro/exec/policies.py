"""Work-distribution policies for the threaded backend.

The same three names (``"fifo"``, ``"lifo"``, ``"priority"``) select
the same queues as :mod:`repro.runtime.scheduler` -- but the shape is
different: instead of one ready queue per simulated node, the executor
keeps one *per worker thread* plus work stealing, the structure of
Cilk-style runtimes and of PaRSEC's own per-core mempools.

All queue operations are called under the executor's lock, so the
structures themselves need no internal synchronisation.

* ``lifo`` -- owner pops its newest task (depth-first, cache-hot),
  thieves steal the oldest (breadth-first), the classic Chase-Lev
  discipline.
* ``fifo`` -- owner pops its oldest task; thieves steal the newest.
* ``priority`` -- per-worker max-heaps on :attr:`Task.priority`
  (boundary-first for the stencil graphs); thieves take the victim's
  best task, preserving the "communication tasks first" heuristic
  across the whole pool.  The default (:data:`DEFAULT_POLICY`) of
  ``RunConfig.policy`` and of both executors.
"""

from __future__ import annotations

from ..runtime.scheduler import POLICIES
from ..runtime.task import Task

#: Policy names accepted by the threaded backend -- deliberately the
#: same set the simulator's scheduler exposes, so ablations sweep one
#: name across both backends.
EXEC_POLICIES = tuple(sorted(POLICIES))

#: The one default: what ``run()``, the service, the tuner and the
#: benchmark run under unless told otherwise, so a direct
#: ``ThreadedExecutor(graph)`` schedules like ``run(backend="threads")``.
DEFAULT_POLICY = "priority"


class WorkQueues:
    """One scheduler queue of ``policy`` per worker, with stealing."""

    def __init__(self, policy: str, jobs: int) -> None:
        if jobs < 1:
            raise ValueError("need at least one worker")
        self.policy = policy
        self.jobs = jobs
        self._qs = [POLICIES[policy]() for _ in range(jobs)]

    def push(self, wid: int, task: Task) -> None:
        self._qs[wid].push(task)

    def pop_local(self, wid: int) -> Task | None:
        q = self._qs[wid]
        return q.pop() if q else None

    def steal(self, wid: int) -> Task | None:
        # Scan victims round-robin from the thief's right neighbour.
        for off in range(1, self.jobs):
            q = self._qs[(wid + off) % self.jobs]
            if q:
                return q.steal()
        return None

    def __len__(self) -> int:
        return sum(len(q) for q in self._qs)

    def seed_order(self, tasks: list[Task]) -> list[Task]:
        """Order the in-degree-0 tasks before round-robin seeding: best
        first under ``priority`` (stable: graph order among equals)."""
        if self.policy == "priority":
            return sorted(tasks, key=lambda t: -t.priority)
        return tasks


def make_work_queues(policy: str, jobs: int) -> WorkQueues:
    """Instantiate the per-worker queues for ``policy``."""
    name = policy.lower()
    if name not in POLICIES:
        raise ValueError(
            f"unknown execution policy {policy!r}; choices: {list(EXEC_POLICIES)}"
        )
    return WorkQueues(name, jobs)


__all__ = ["DEFAULT_POLICY", "EXEC_POLICIES", "WorkQueues", "make_work_queues"]
