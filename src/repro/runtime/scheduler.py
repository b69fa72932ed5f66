"""Per-node ready-queue scheduling policies.

PaRSEC lets the user pick among several schedulers; the ones that
matter for this study are FIFO (arrival order), LIFO (depth-first,
cache-friendly) and a priority scheduler.  The stencil builders assign
higher priority to node-boundary tiles so their ghost data enters the
network as early as possible -- the classic "communication tasks
first" heuristic that maximises overlap.  The ablation bench
``bench_ablation_scheduler`` compares the policies.

A node has one ready queue on every backend: the engine keeps one per
simulated node, the threaded executor one for its pool, the processes
backend one in each node process -- all built by :func:`make_queue`.
"""

from __future__ import annotations

import heapq
from collections import deque
from typing import Protocol

from .task import Task


class ReadyQueue(Protocol):
    """Interface the engine and both executors drive, one instance per
    node.  No internal locking: the engine is one thread, an executor
    calls it under its own lock."""

    def push(self, task: Task) -> None:  # pragma: no cover - protocol
        ...

    def pop(self) -> Task:  # pragma: no cover - protocol
        ...

    def __len__(self) -> int:  # pragma: no cover - protocol
        ...


class FifoQueue:
    """Plain arrival-order queue."""

    def __init__(self) -> None:
        self._q: deque[Task] = deque()

    def push(self, task: Task) -> None:
        self._q.append(task)

    def pop(self) -> Task:
        return self._q.popleft()

    def __len__(self) -> int:
        return len(self._q)


class LifoQueue:
    """Depth-first queue: runs the most recently enabled task first,
    which tends to follow the data just produced (better cache reuse)."""

    def __init__(self) -> None:
        self._q: deque[Task] = deque()

    def push(self, task: Task) -> None:
        self._q.append(task)

    def pop(self) -> Task:
        return self._q.pop()

    def __len__(self) -> int:
        return len(self._q)


class PriorityQueue:
    """Highest :attr:`Task.priority` first; FIFO among equals.

    This is the policy the stencil runs use: boundary tiles carry
    higher priority, so every worker prefers tasks whose outputs feed
    the network.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, Task]] = []
        self._seq = 0

    def push(self, task: Task) -> None:
        # Negate priority: heapq is a min-heap, we want max-priority.
        heapq.heappush(self._heap, (-task.priority, self._seq, task))
        self._seq += 1

    def pop(self) -> Task:
        return heapq.heappop(self._heap)[2]

    def __len__(self) -> int:
        return len(self._heap)


POLICIES = {
    "fifo": FifoQueue,
    "lifo": LifoQueue,
    "priority": PriorityQueue,
}

#: The one default: what ``run()``, the engine, both executors, the
#: service, the tuner and the benchmark schedule by unless told
#: otherwise, so a direct ``ThreadedExecutor(graph)`` schedules like
#: ``run(backend="threads")``.
DEFAULT_POLICY = "priority"


def make_queue(policy: str) -> ReadyQueue:
    """Instantiate a ready queue by policy name.

    The queues stay uninstrumented even under telemetry: the engine
    derives push counts from the graph after the run and tracks the
    depth high-water mark itself, so the scheduling hot path is
    identical with and without a metrics registry attached.
    """
    try:
        return POLICIES[policy.lower()]()
    except KeyError:
        raise ValueError(
            f"unknown policy {policy!r}; choices: {tuple(POLICIES)}"
        ) from None
