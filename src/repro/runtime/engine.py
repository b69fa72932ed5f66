"""Discrete-event dataflow engine -- the "PaRSEC" of this reproduction.

The engine plays both roles of a distributed task runtime:

* **Executor**: with ``execute=True`` every task's kernel actually runs
  (on real numpy payloads) in a dependency-respecting order, with
  payloads routed producer-to-consumer through a versioned mailbox, so
  numerical results are real and testable.
* **Performance simulator**: a virtual clock advances according to the
  machine model.  Each node has ``cores - 1`` compute workers plus one
  communication thread (the paper's PaRSEC configuration); remote
  flows become messages that occupy the sender's comm thread
  (software overhead), the sender's NIC (serialization at effective
  bandwidth), the wire (latency) and the receiver's comm thread, while
  compute workers keep executing independent tasks -- which is exactly
  the communication/computation overlap the paper leans on.

Setting ``overlap=False`` removes the communication thread and charges
message costs to the compute workers synchronously (blocking-MPI
style), isolating the benefit of overlap for the ablation study.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Any

from ..machine.machine import MachineSpec
from ..obs import trace_validation_enabled
from ..obs.metrics import MetricRegistry, publish_run
from .graph import GraphError, TaskGraph
from .report import EngineReport, KernelError, NodeLostError
from .scheduler import DEFAULT_POLICY, make_queue
from .store import PayloadStore
from .task import Task, TaskKey
from .trace import Trace

__all__ = ["Engine", "EngineReport", "KernelError", "NodeLostError"]


# Event kinds, processed in (time, seq) order.
_TASK_DONE = 0
_COMM_JOB_DONE = 1
_ARRIVE = 3
_WORKER_SEND_DONE = 4


@dataclass
class _Message:
    """One remote transfer of (producer, tag) to a destination node."""

    __slots__ = ("producer", "tag", "src", "dst", "nbytes")
    producer: TaskKey
    tag: str
    src: int
    dst: int
    nbytes: int


class Engine:
    """Run a finalized :class:`TaskGraph` on a :class:`MachineSpec`.

    Parameters
    ----------
    graph:
        The task graph; :meth:`TaskGraph.finalize` is called if needed.
    machine:
        Machine model; ``machine.nodes`` must cover every task's node.
    policy:
        Ready-queue policy name (``"priority"``, ``"fifo"``, ``"lifo"``).
    execute:
        Run real kernels and route real payloads.
    overlap:
        ``True``: dedicated comm thread per node (cores-1 compute
        workers).  ``False``: blocking communication on the compute
        workers (all cores compute) -- the ablation mode.
    trace:
        Record a :class:`Trace` of every span.
    charge_task_overhead:
        Charge the node's per-task software overhead in addition to the
        task's modelled cost (disable for pure-execution runs).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricRegistry`: the
        finished report is folded into it once, at the end of the run
        (:func:`~repro.obs.metrics.publish_run`); the event loop never
        touches it.
    """

    def __init__(
        self,
        graph: TaskGraph,
        machine: MachineSpec,
        policy: str = DEFAULT_POLICY,
        execute: bool = False,
        overlap: bool = True,
        trace: bool = False,
        charge_task_overhead: bool = True,
        metrics: MetricRegistry | None = None,
        chaos=None,
    ) -> None:
        graph.finalize()
        nodes_used = graph.nodes_used()
        if nodes_used and max(nodes_used) >= machine.nodes:
            raise GraphError(
                f"graph uses node {max(nodes_used)} but machine has only "
                f"{machine.nodes} nodes"
            )
        self.graph = graph
        self.machine = machine
        self.execute = execute
        self.overlap = overlap
        self.charge_task_overhead = charge_task_overhead
        self.workers_per_node = (
            machine.node.compute_cores if overlap else machine.node.cores
        )
        self.trace = Trace() if trace else None
        self._policy_name = policy
        self.metrics = metrics
        #: optional fault-injection hook (repro.chaos): consulted on
        #: every message arrival; a returned delay models one dropped
        #: delivery plus its retransmit.  None pays nothing.
        self.chaos = chaos

        nnodes = machine.nodes
        self._ready = [make_queue(policy) for _ in range(nnodes)]
        self._idle = [list(range(self.workers_per_node)) for _ in range(nnodes)]
        # Comm thread & NIC: next free virtual time and FIFO backlog.
        self._comm_free = [0.0] * nnodes
        self._comm_queue: list[deque[tuple]] = [deque() for _ in range(nnodes)]
        self._comm_busy_flag = [False] * nnodes
        self._nic_free = [0.0] * nnodes

        # Dependency bookkeeping.
        self._pending: dict[TaskKey, int] = {}
        # (producer, tag, node) -> consumer keys, one entry per flow instance.
        self._waiters: dict[tuple[TaskKey, str, int], list[TaskKey]] = {}
        # producer -> same-node consumer keys (one entry per flow instance).
        self._local_waiters: dict[TaskKey, list[TaskKey]] = {}
        # producer -> (tag, dst, nbytes) messages its completion emits.
        self._plan = graph.message_plan()
        # blocking mode: per-consumer receive-processing charge.
        self._recv_charge: dict[TaskKey, float] = {}
        # Payload mailbox (execute mode only).
        self._store = PayloadStore(graph, graph) if execute else None

        self._events: list[tuple] = []  # (time, seq, kind, payload)
        self._seq = 0
        self._now = 0.0

        # Accounting.
        self._messages = 0
        self._message_bytes = 0
        self._max_comm_backlog = 0
        self._node_busy = dict.fromkeys(range(nnodes), 0.0)
        self._comm_busy = dict.fromkeys(range(nnodes), 0.0)
        #: flat, indexed ``node * workers_per_node + worker``
        self._worker_busy = [0.0] * (nnodes * self.workers_per_node)
        self._by_pair: dict[tuple[int, int], tuple[int, int]] = {}
        self._tasks_run = 0

    # -- event helpers ----------------------------------------------------

    def _push_event(self, time: float, kind: int, payload: Any) -> None:
        heapq.heappush(self._events, (time, self._seq, kind, payload))
        self._seq += 1

    # -- setup -------------------------------------------------------------

    def _prepare(self) -> None:
        """One pass over the graph building the dependency tables:

        * ``_pending`` -- unmet input counts per task;
        * ``_local_waiters`` -- consumer lists woken directly when a
          same-node producer completes;
        * ``_waiters`` -- consumer lists keyed by (producer, tag, node),
          woken when a message is delivered to that node.
        """
        tasks = self.graph.tasks
        local_waiters = self._local_waiters
        waiters = self._waiters
        for task in self.graph:
            self._pending[task.key] = len(task.inputs)
            node = task.node
            for flow in task.inputs:
                if tasks[flow.producer].node == node:
                    local_waiters.setdefault(flow.producer, []).append(task.key)
                else:
                    waiters.setdefault((flow.producer, flow.tag, node), []).append(
                        task.key
                    )
                    if not self.overlap:
                        # Blocking MPI: the consumer's worker processes
                        # the matching receive itself.
                        self._recv_charge[task.key] = (
                            self._recv_charge.get(task.key, 0.0)
                            + self.machine.network.software_overhead
                        )
        for task in self.graph:
            if self._pending[task.key] == 0:
                self._ready[task.node].push(task)

    # -- main loop -----------------------------------------------------------

    def run(self) -> EngineReport:
        """Process the whole graph; returns the :class:`EngineReport`."""
        self._prepare()
        for node in range(self.machine.nodes):
            self._dispatch(node)
        while self._events:
            time, _seq, kind, payload = heapq.heappop(self._events)
            if time < self._now - 1e-18:
                raise RuntimeError("virtual clock moved backwards")
            self._now = max(self._now, time)
            if kind == _TASK_DONE:
                self._on_task_done(*payload)
            elif kind == _COMM_JOB_DONE:
                self._on_comm_job_done(payload)
            elif kind == _ARRIVE:
                self._on_arrival(payload)
            elif kind == _WORKER_SEND_DONE:
                self._on_worker_send_done(*payload)
        if any(self._pending.values()):
            stuck = [k for k, p in self._pending.items() if p > 0][:5]
            raise RuntimeError(
                f"deadlock: {sum(1 for p in self._pending.values() if p > 0)} "
                f"tasks never became ready, e.g. {stuck}"
            )
        if self.trace is not None and trace_validation_enabled():
            self.trace.validate()
        useful, redundant = self.graph.total_flops()
        census = self.graph.census()
        report = EngineReport(
            elapsed=self._now,
            tasks_run=self._tasks_run,
            messages=self._messages,
            message_bytes=self._message_bytes,
            local_edges=census.local_edges,
            local_bytes=census.local_bytes,
            useful_flops=useful,
            redundant_flops=redundant,
            node_busy=self._node_busy,
            comm_busy=self._comm_busy,
            worker_busy=dict(enumerate(self._worker_busy)),
            by_pair=self._by_pair,
            max_comm_backlog=self._max_comm_backlog,
            trace=self.trace,
            results=self._store.results if self._store is not None else {},
        )
        if self.metrics is not None:
            report.metrics = publish_run(self.metrics, report, self.graph)
        return report

    def progress(self) -> dict:
        """Live view of the run for :mod:`repro.obs.monitor` (the
        event loop runs on one thread, so a sampler on another thread
        reads consistent-enough integers)."""
        return {
            "done": self._tasks_run,
            "total": len(self.graph),
            "elapsed_s": self._now,
            "messages": self._messages,
            "message_bytes": self._message_bytes,
        }

    # -- dispatch -------------------------------------------------------------

    def _dispatch(self, node: int) -> None:
        """Assign ready tasks to idle workers on ``node``."""
        ready = self._ready[node]
        idle = self._idle[node]
        while idle and len(ready):
            worker = idle.pop()
            task = ready.pop()
            duration = task.cost
            if self.charge_task_overhead:
                duration += self.machine.node.task_overhead
            if not self.overlap:
                duration += self._recv_charge.get(task.key, 0.0)
            start = self._now
            end = start + duration
            self._node_busy[node] += duration
            self._worker_busy[node * self.workers_per_node + worker] += duration
            if self.trace is not None:
                self.trace.record(
                    node, worker, task.kind, start, end, task.key, task_id=task.key
                )
            if self.execute:
                self._run_kernel(task)
            self._push_event(end, _TASK_DONE, (task, worker))

    def _run_kernel(self, task: Task) -> None:
        store = self._store
        inputs = store.gather(task)
        try:
            outputs = dict(task.kernel(inputs, task)) if task.kernel is not None else {}
        except Exception as exc:
            if isinstance(exc, KernelError):
                raise
            raise KernelError(
                f"kernel of task {task.key!r} (kind {task.kind!r}) failed: {exc}"
            ) from exc
        store.publish(task, outputs)
        store.release(task)

    # -- completion & message machinery --------------------------------------

    def _on_task_done(self, task: Task, worker: int) -> None:
        node = task.node
        self._tasks_run += 1
        msgs = [
            _Message(task.key, tag, node, dst, nbytes)
            for tag, dst, nbytes in self._plan.get(task.key, ())
        ]
        # Local consumers are satisfied immediately.
        local = self._local_waiters.get(task.key)
        if local:
            self._wake(local)
        if self.overlap:
            self._idle[node].append(worker)
            for msg in msgs:
                self._enqueue_comm_job(node, ("send", msg))
            self._dispatch(node)
        elif msgs:
            # Blocking mode: the worker itself performs the sends.
            send_time = 0.0
            for msg in msgs:
                send_time += (
                    self.machine.network.software_overhead
                    + msg.nbytes / self.machine.network.effective_bw
                )
            end = self._now + send_time
            self._node_busy[node] += send_time
            self._worker_busy[node * self.workers_per_node + worker] += send_time
            if self.trace is not None:
                self.trace.record(
                    node, worker, "send", self._now, end, task.key, task_id=task.key
                )
            for msg in msgs:
                # Receive-side processing is charged to the consuming
                # task itself (_recv_charge), so arrival is wire-only.
                arrival = end + self.machine.network.latency
                self._push_event(arrival, _ARRIVE, msg)
            self._push_event(end, _WORKER_SEND_DONE, (node, worker))
        else:
            self._idle[node].append(worker)
            self._dispatch(node)

    def _on_worker_send_done(self, node: int, worker: int) -> None:
        self._idle[node].append(worker)
        self._dispatch(node)

    def _satisfy(self, gate_key: tuple) -> None:
        """Wake the consumers waiting on a delivered message."""
        waiters = self._waiters.get(gate_key)
        if waiters:
            self._wake(waiters)

    def _wake(self, waiters: list[TaskKey]) -> None:
        touched_nodes = set()
        for consumer_key in waiters:
            self._pending[consumer_key] -= 1
            if self._pending[consumer_key] == 0:
                consumer = self.graph[consumer_key]
                self._ready[consumer.node].push(consumer)
                touched_nodes.add(consumer.node)
        for node in touched_nodes:
            self._dispatch(node)

    # -- comm thread ------------------------------------------------------------

    def _enqueue_comm_job(self, node: int, job: tuple) -> None:
        queue = self._comm_queue[node]
        queue.append(job)
        if len(queue) > self._max_comm_backlog:
            self._max_comm_backlog = len(queue)
        if not self._comm_busy_flag[node]:
            self._start_next_comm_job(node)

    def _start_next_comm_job(self, node: int) -> None:
        if not self._comm_queue[node]:
            self._comm_busy_flag[node] = False
            return
        self._comm_busy_flag[node] = True
        kind, msg = self._comm_queue[node].popleft()
        start = max(self._now, self._comm_free[node])
        overhead = self.machine.network.software_overhead
        end = start + overhead
        self._comm_free[node] = end
        self._comm_busy[node] += overhead
        if self.trace is not None:
            # The label carries the full comm-edge endpoints -- for a
            # send the destination node, for a recv the source node --
            # so the causal critical-path join can pair the two spans.
            peer = msg.dst if kind == "send" else msg.src
            self.trace.record(
                node, -1, kind, start, end, (msg.producer, msg.tag, peer),
                task_id=msg.producer,
            )
        if kind == "send":
            # After CPU-side processing the NIC serializes onto the wire.
            nic_start = max(end, self._nic_free[node])
            nic_end = nic_start + msg.nbytes / self.machine.network.effective_bw
            self._nic_free[node] = nic_end
            arrival = nic_end + self.machine.network.latency
            self._push_event(arrival, _ARRIVE, msg)
        else:  # recv: deliver to waiting consumers on this node
            self._push_event(end, _COMM_JOB_DONE, (node, msg))
            return
        self._push_event(end, _COMM_JOB_DONE, (node, None))

    def _on_comm_job_done(self, payload: tuple) -> None:
        node, msg = payload
        if msg is not None:
            self._satisfy((msg.producer, msg.tag, msg.dst))
        self._start_next_comm_job(node)

    def _on_arrival(self, msg: _Message) -> None:
        if self.chaos is not None:
            # A dropped delivery: nothing is tallied for this attempt;
            # the retransmitted copy arrives after the virtual delay
            # and goes through the normal path (the hook fires each
            # fault exactly once, so redelivery cannot loop).
            delay = self.chaos.on_message(msg.producer, msg.tag, msg.src, msg.dst)
            if delay is not None:
                self._push_event(self._now + delay, _ARRIVE, msg)
                return
        self._messages += 1
        self._message_bytes += msg.nbytes
        pair = (msg.src, msg.dst)
        count, nbytes = self._by_pair.get(pair, (0, 0))
        self._by_pair[pair] = (count + 1, nbytes + msg.nbytes)
        if self.overlap:
            self._enqueue_comm_job(msg.dst, ("recv", msg))
        else:
            self._satisfy((msg.producer, msg.tag, msg.dst))
