"""Task-graph container: construction, validation and static analysis.

The graph is the hand-off point between the stencil builders (which
unroll a spec's per-tile, per-phase units, :mod:`repro.core.dataflow`)
and the execution engine.  It owns the reverse dependency maps the
engine needs and can compute the static communication census that the
benchmarks and tests use as ground truth.
"""

from __future__ import annotations

import hashlib
from collections import deque
from typing import Callable, Iterator

from .task import EdgeCensus, Kernel, Task, TaskKey


class GraphError(Exception):
    """Raised for malformed task graphs (duplicate keys, missing
    producers, cycles)."""


class TaskGraph:
    """A directed acyclic graph of :class:`Task` objects.

    Tasks are added with :meth:`add`; :meth:`finalize` validates the
    graph and builds the consumer maps.  The engine refuses to run a
    non-finalized graph.
    """

    def __init__(self) -> None:
        self.tasks: dict[TaskKey, Task] = {}
        #: (producer_key, tag) -> list of consumer keys
        self.consumers: dict[tuple[TaskKey, str], list[TaskKey]] = {}
        #: producer key -> tags it must produce (declared + consumed)
        self.out_tags: dict[TaskKey, tuple[str, ...]] = {}
        self._finalized = False
        self._plan: dict[TaskKey, list[tuple[str, int, int]]] | None = None
        #: (edges, bytes) of the same-node flows, tallied with the plan
        self._local = (0, 0)
        self._digest: str | None = None
        #: how a process forked before this graph was built may rebuild
        #: it for itself (:class:`repro.core.recipe.Recipe`); set by a
        #: stencil build on the graph it returns, None for any other
        self.recipe = None
        self._census: EdgeCensus | None = None
        self._flops: tuple[float, float] | None = None

    # -- construction --------------------------------------------------

    def add(self, task: Task) -> Task:
        """Add a task; its producers may be added later (PaRSEC unfolds
        graphs dynamically too)."""
        if self._finalized:
            raise GraphError("cannot add tasks to a finalized graph")
        if task.key in self.tasks:
            raise GraphError(f"duplicate task key: {task.key!r}")
        self.tasks[task.key] = task
        return task

    def add_task(self, key: TaskKey, node: int, **kwargs) -> Task:
        """Convenience wrapper building the :class:`Task` in place."""
        return self.add(Task(key, node, **kwargs))

    def bind(self, kernel_of: Callable[[Task], Kernel | None]) -> "TaskGraph":
        """This finalized graph for one more run: every task cloned
        with the kernel ``kernel_of`` gives it, so the copy's tasks may
        be instrumented in place; the consumer maps and whatever static
        analysis was computed before the call are shared, read-only."""
        bound = TaskGraph.__new__(TaskGraph)
        bound.__dict__.update(self.__dict__)
        bound.tasks = {key: task.clone(kernel=kernel_of(task))
                       for key, task in self.tasks.items()}
        return bound

    def __len__(self) -> int:
        return len(self.tasks)

    def __contains__(self, key: TaskKey) -> bool:
        return key in self.tasks

    def __getitem__(self, key: TaskKey) -> Task:
        return self.tasks[key]

    def __iter__(self) -> Iterator[Task]:
        return iter(self.tasks.values())

    # -- validation -----------------------------------------------------

    @property
    def finalized(self) -> bool:
        return self._finalized

    def finalize(self, validate: bool = True) -> "TaskGraph":
        """Validate producers exist, build consumer maps and (when
        ``validate``) check acyclicity.  Generated graphs whose task
        keys are ordered by iteration may skip the cycle check; hand
        built graphs should keep it.  Idempotent."""
        if self._finalized:
            return self
        consumers: dict[tuple[TaskKey, str], list[TaskKey]] = {}
        out_tags: dict[TaskKey, set[str]] = {key: set(t.out_nbytes) for key, t in self.tasks.items()}
        for task in self.tasks.values():
            for producer, tag, *_ in task.inputs:
                tags = out_tags.get(producer)
                if tags is None:
                    raise GraphError(
                        f"task {task.key!r} consumes {tag!r} of missing "
                        f"producer {producer!r}"
                    )
                consumers.setdefault((producer, tag), []).append(task.key)
                tags.add(tag)
        self.consumers = consumers
        self.out_tags = {key: tuple(sorted(tags)) for key, tags in out_tags.items()}
        if validate:
            self._check_acyclic()
        self._finalized = True
        return self

    def _kahn(self) -> tuple[list[TaskKey], dict[TaskKey, int]]:
        """One Kahn sweep, shared by the cycle check and every
        topological consumer: the visit order plus the final in-degree
        map (entries left positive mark tasks stuck behind a cycle)."""
        indeg = {key: len(t.inputs) for key, t in self.tasks.items()}
        ready = deque(key for key, d in indeg.items() if d == 0)
        order: list[TaskKey] = []
        while ready:
            key = ready.popleft()
            order.append(key)
            for tag in self.out_tags.get(key, ()):
                for consumer in self.consumers.get((key, tag), ()):
                    indeg[consumer] -= 1
                    if indeg[consumer] == 0:
                        ready.append(consumer)
        return order, indeg

    def _check_acyclic(self) -> list[TaskKey]:
        """The tasks in dependency order; raises :class:`GraphError`
        with a sample of the offending tasks if a cycle exists."""
        order, indeg = self._kahn()
        if len(order) != len(self.tasks):
            stuck = [k for k, d in indeg.items() if d > 0][:5]
            raise GraphError(f"task graph has a cycle; sample of blocked tasks: {stuck}")
        return order

    # -- static analysis -------------------------------------------------

    def flow_bytes(self, producer: TaskKey, tag: str) -> int:
        """The size of output ``tag`` of ``producer``: the largest any
        party declared (the producer's ``out_nbytes`` or a consuming
        flow).  0 means a control edge -- pure ordering, no payload."""
        biggest = self.tasks[producer].out_nbytes.get(tag, 0)
        for consumer_key in self.consumers.get((producer, tag), ()):
            for flow in self.tasks[consumer_key].inputs:
                if flow.producer == producer and flow.tag == tag:
                    biggest = max(biggest, flow.nbytes)
        return biggest

    def message_plan(self) -> dict[TaskKey, list[tuple[str, int, int]]]:
        """The communication the graph implies, independent of any
        schedule: producer key -> ``(tag, destination node, nbytes)``,
        one entry per remote *message* (a flow's, or each of its
        ``parts``).  Consumers of one output on the same node share a
        message (as in PaRSEC); its payload is the
        largest size any party declared for it -- the producer's
        ``out_nbytes`` or a consuming flow on that node.  Entries are
        ordered by their first consuming flow in graph order: that is
        the order the engine sends them in, and virtual time depends on
        it.  Every backend and :meth:`census` read this one table;
        computed on first use, immutable once finalized."""
        if not self._finalized:
            raise GraphError("finalize() the graph before analysing it")
        if self._plan is not None:
            return self._plan
        tasks = self.tasks
        sizes: dict[TaskKey, dict[tuple[str, int], int]] = {}
        local_edges = local_bytes = 0
        for task in tasks.values():
            node = task.node
            for flow in task.inputs:
                producer = tasks[key := flow.producer]
                if producer.node == node:
                    local_edges += 1
                    local_bytes += flow.nbytes
                    continue
                per_message = sizes.setdefault(key, {})
                for tag, nbytes in flow.messages:
                    message = (tag, node)
                    prev = per_message.get(message)
                    if prev is None:
                        prev = producer.out_nbytes.get(tag, 0)
                    per_message[message] = nbytes if nbytes > prev else prev
        self._local = (local_edges, local_bytes)
        self._plan = {
            key: [(tag, dst, nbytes) for (tag, dst), nbytes in per_message.items()]
            for key, per_message in sizes.items()
        }
        return self._plan

    def plan_digest(self) -> str:
        """16 hex digits of sha256 over :meth:`message_plan`, entry by
        entry and in order: two graphs with one digest send the same
        messages.  Computed on first use."""
        if self._digest is None:
            rows = [(producer, tag, dst, nbytes)
                    for producer, messages in self.message_plan().items()
                    for tag, dst, nbytes in messages]
            self._digest = hashlib.sha256(repr(rows).encode()).hexdigest()[:16]
        return self._digest

    def census(self) -> EdgeCensus:
        """Totals of :meth:`message_plan` (remote messages and bytes,
        per node pair) plus the same-node flows it skipped -- the
        ground truth the backends' measured counts are tested against."""
        if self._census is not None:  # immutable once finalized
            return self._census
        plan = self.message_plan()
        census = EdgeCensus(*self._local)
        for producer, messages in plan.items():
            src = self.tasks[producer].node
            for _tag, dst, nbytes in messages:
                census.add_remote(src, dst, nbytes)
        self._census = census
        return census

    def total_flops(self) -> tuple[float, float]:
        """(useful, redundant) FLOP over the whole graph."""
        if self._flops is None or not self._finalized:
            self._flops = (sum(t.flops for t in self.tasks.values()),
                           sum(t.redundant_flops for t in self.tasks.values()))
        return self._flops

    def critical_path(self) -> float:
        """Length (seconds of task cost) of the longest dependency chain
        -- a lower bound on any schedule with infinitely many workers
        and a zero-cost network."""
        if not self._finalized:
            raise GraphError("finalize() the graph before analysing it")
        dist: dict[TaskKey, float] = {}
        for key in self.topological_order():
            task = self.tasks[key]
            start = 0.0
            for flow in task.inputs:
                start = max(start, dist[flow.producer])
            dist[key] = start + task.cost
        return max(dist.values(), default=0.0)

    def topological_order(self) -> list[TaskKey]:
        """Every task key in dependency order (producers first).

        A cycle (possible when the graph was finalized with
        ``validate=False``) raises rather than returning a silently
        truncated order."""
        if not self._finalized:
            raise GraphError("finalize() the graph before analysing it")
        return self._check_acyclic()

    def nodes_used(self) -> set[int]:
        return {t.node for t in self.tasks.values()}
