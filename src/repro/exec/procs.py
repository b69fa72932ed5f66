"""Multiprocess execution backend: real IPC halo exchange.

Where :class:`~repro.exec.executor.ThreadedExecutor` runs a whole task
graph inside one address space (so "communication" is a pointer hand
over), this backend makes the paper's cost observable: every simulated
cluster *node* becomes a real OS process that owns exactly the tasks
placed on that node, and every node-boundary ghost flow becomes a real
pickled message travelling through a ``multiprocessing`` pipe.  The
base-vs-CA message-count gap -- the whole point of communication
avoidance -- is therefore measured, not modelled: CA sends ~``s``x
fewer inter-process messages for the same problem.

Topology and roles
------------------

* the parent builds a full mesh of duplex pipes between the ``procs``
  node processes plus one control pipe per child, forks the children
  (the graph is inherited copy-on-write; only *messages* are pickled),
  then watches the control pipes on behalf of the run's ``RunHandle``;
* inside each child a :class:`_NodeExecutor` -- a
  :class:`ThreadedExecutor` restricted to the node's own tasks -- runs
  interior tiles on a work-stealing thread pool exactly as the threads
  backend does;
* a dedicated *courier* thread is the single writer of the peer pipes
  (the paper's per-node communication thread): completed boundary
  tasks enqueue their remote strips and the courier pickles and ships
  one message per (producer, tag, destination node), the same unit the
  static census counts;
* a *receiver* thread drains incoming pipes, injecting remote payloads
  into the executor's payload store and releasing consumer dependency
  counts, and listens on the control pipe for cancel/exit requests.

Failure containment: a kernel error in one process is broadcast as an
abort message to every peer and reported to the parent, so
:class:`~repro.runtime.engine.KernelError` propagates across the
process boundary without deadlocking anyone; cancellation and
parent-death likewise unwind every pool, and the parent terminates
stragglers after a grace period so no orphan workers survive.

Accounting: the courier ships exactly the entries of
:meth:`TaskGraph.message_plan`, so per-edge message counts and
*declared* payload bytes equal :meth:`TaskGraph.census` by
construction; actual pickled wire bytes are tallied separately.
Send/recv spans land in the standard
:class:`~repro.runtime.trace.Trace` schema on comm lanes, so occupancy
analyses and the Perfetto exporter work unchanged.
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import os
import pickle
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as conn_wait

from ..obs import trace_validation_enabled
from ..obs.export import build_trace
from ..obs.metrics import MetricRegistry, MetricsSnapshot
from ..runtime.engine import KernelError, NodeLostError
from ..runtime.graph import TaskGraph
from ..runtime.task import Flow, Task, TaskKey
from ..runtime.trace import Trace
from .executor import ExecReport, ThreadedExecutor, ensure_executable
from .futures import RunCancelled, RunHandle

#: Trace worker lanes of the communication threads (compute workers are
#: ``0..jobs-1``; anything negative is a comm lane, as in the engine).
SEND_LANE = -1
RECV_LANE = -2

#: Seconds a process gets to exit voluntarily before it is terminated.
JOIN_GRACE = 5.0

#: Poll interval of the receiver / watcher loops (they mostly sleep in
#: ``connection.wait``; this only bounds reaction time to local flags).
_POLL = 0.1


def default_procs(graph: TaskGraph) -> int:
    """Process count when the caller does not choose one: one per node
    the graph places tasks on."""
    nodes = graph.nodes_used()
    return (max(nodes) + 1) if nodes else 1


def fork_available() -> bool:
    """The backend needs POSIX ``fork`` (the graph, with its closures
    and kernels, is inherited rather than pickled)."""
    return "fork" in mp.get_all_start_methods()


@dataclass
class ProcsReport(ExecReport):
    """An :class:`ExecReport` measured across real processes.

    ``messages`` / ``message_bytes`` count real pipe messages with
    their census-declared payload sizes (so they are directly
    comparable to the simulator's numbers); ``wire_bytes`` is what
    actually crossed the pipes including pickle framing.  ``node_busy``
    has one entry per process, so the inherited ``occupancy(jobs)``
    averages worker busyness over every pool.
    """

    #: number of node processes that executed the graph
    procs: int = 0
    #: bytes that actually crossed the pipes (pickled frames)
    wire_bytes: int = 0
    #: (src, dst) -> (messages, declared payload bytes)
    by_pair: dict = field(default_factory=dict)

    @property
    def worker_occupancy(self) -> float:
        if self.elapsed <= 0 or self.jobs <= 0 or self.procs <= 0:
            return 0.0
        return sum(self.worker_busy.values()) / (
            self.procs * self.jobs * self.elapsed
        )


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------


class _Courier(threading.Thread):
    """Single writer of every outbound peer pipe (one comm thread per
    node, like the engine's overlap mode).  Serialises with pickle,
    tallies the message census, and records send spans."""

    def __init__(
        self,
        peers: dict[int, Connection],
        node: int = -1,
        chaos=None,
    ) -> None:
        super().__init__(name="repro-procs-courier", daemon=True)
        self.peers = peers
        self.node = node
        #: optional fault-injection hook (repro.chaos): a matched
        #: message sleeps its retransmit delay before shipping,
        #: modelling one dropped frame.  None pays nothing.
        self.chaos = chaos
        self._cv = threading.Condition()
        self._queue: deque = deque()
        self._closing = False
        self.messages = 0
        self.payload_bytes = 0
        self.wire_bytes = 0
        self.by_dst: dict[int, list[int]] = {}
        #: (start, end, label) with raw perf_counter stamps
        self.spans: list[tuple[float, float, object]] = []

    def send_data(
        self, dst: int, producer: TaskKey, tag: str, payload, nbytes: int
    ) -> None:
        with self._cv:
            if self._closing:
                return
            self._queue.append(("data", dst, producer, tag, payload, nbytes))
            self._cv.notify()

    def abort_and_stop(self, message: str) -> None:
        """Drop queued data, tell every peer to abort, then drain."""
        with self._cv:
            self._queue.clear()
            for dst in self.peers:
                self._queue.append(("abort", dst, message))
            self._closing = True
            self._cv.notify()

    def stop(self, flush: bool = True) -> None:
        with self._cv:
            if not flush:
                self._queue.clear()
            self._closing = True
            self._cv.notify()

    def run(self) -> None:
        while True:
            with self._cv:
                while not self._queue and not self._closing:
                    self._cv.wait()
                if not self._queue:
                    return
                item = self._queue.popleft()
            if item[0] == "data":
                _kind, dst, producer, tag, payload, nbytes = item
                if self.chaos is not None:
                    delay = self.chaos.on_message(producer, tag, self.node, dst)
                    if delay:
                        time.sleep(delay)  # the dropped frame's retransmit wait
                frame = pickle.dumps(
                    ("data", producer, tag, payload), protocol=pickle.HIGHEST_PROTOCOL
                )
                start = time.perf_counter()
                if not self._ship(dst, frame):
                    continue
                end = time.perf_counter()
                self.messages += 1
                self.payload_bytes += nbytes
                self.wire_bytes += len(frame)
                stats = self.by_dst.setdefault(dst, [0, 0, 0])
                stats[0] += 1
                stats[1] += nbytes
                stats[2] += len(frame)
                self.spans.append((start, end, (producer, tag, dst)))
            else:  # abort
                _kind, dst, message = item
                self._ship(
                    dst,
                    pickle.dumps(("abort", message), protocol=pickle.HIGHEST_PROTOCOL),
                )

    def _ship(self, dst: int, frame: bytes) -> bool:
        try:
            self.peers[dst].send_bytes(frame)
            return True
        except (BrokenPipeError, ConnectionResetError, OSError):
            return False  # peer already gone; its fate is reported elsewhere


class _Receiver(threading.Thread):
    """Single reader of the inbound peer pipes and the control pipe.

    Runs for the whole life of the child -- even after the local pool
    finished -- so a slower peer's courier never blocks on a full pipe.
    """

    def __init__(
        self,
        executor: "_NodeExecutor",
        peers: dict[int, Connection],
        ctrl: Connection,
    ) -> None:
        super().__init__(name="repro-procs-receiver", daemon=True)
        self.executor = executor
        self.peers = peers
        self.ctrl = ctrl
        self.exit_seen = threading.Event()
        # NB: not named _stop -- threading.Thread owns that attribute.
        self._stopped = threading.Event()
        self.recv_messages = 0
        self.recv_bytes = 0
        self.spans: list[tuple[float, float, object]] = []

    def stop(self) -> None:
        self._stopped.set()

    def run(self) -> None:
        sources = {conn: src for src, conn in self.peers.items()}
        live: list[Connection] = [*sources, self.ctrl]
        while live and not self._stopped.is_set():
            for conn in conn_wait(live, timeout=_POLL):
                if conn is self.ctrl:
                    if not self._handle_ctrl():
                        live.remove(conn)
                    continue
                try:
                    frame = conn.recv_bytes()
                except (EOFError, OSError):
                    live.remove(conn)
                    continue
                start = time.perf_counter()
                msg = pickle.loads(frame)
                end = time.perf_counter()
                if msg[0] == "data":
                    _kind, producer, tag, payload = msg
                    self.executor._inject(producer, tag, payload)
                    self.recv_messages += 1
                    self.recv_bytes += len(frame)
                    self.spans.append((start, end, (producer, tag, sources[conn])))
                elif msg[0] == "abort":
                    self.executor._fail_remote(KernelError(msg[1]))

    def _handle_ctrl(self) -> bool:
        """React to a parent request; False when the pipe is dead."""
        try:
            msg = self.ctrl.recv()
        except (EOFError, OSError):
            # The parent vanished: unwind rather than run headless.
            self.executor._fail_remote(
                KernelError("parent process disappeared during the run")
            )
            self.exit_seen.set()
            return False
        if msg[0] == "cancel":
            self.executor._request_cancel()
        elif msg[0] == "exit":
            self.exit_seen.set()
            self._stopped.set()
        return True


class _NodeExecutor(ThreadedExecutor):
    """A :class:`ThreadedExecutor` that owns one node's tasks of a
    larger graph.  Remote inputs arrive via :meth:`_inject`; remote
    outputs leave through the attached courier."""

    def __init__(
        self, graph: TaskGraph, node: int, jobs: int, policy: str, trace: bool,
        metrics: MetricRegistry | None = None,
    ) -> None:
        self.node = node
        self.metrics_node = node  # label this node's metrics correctly
        self._local: list[Task] = [t for t in graph if t.node == node]
        #: (producer, tag) -> local consumer keys (one entry per flow)
        self._remote_consumers: dict[tuple[TaskKey, str], list[TaskKey]] = {}
        self._inject_rr = 0
        self._courier: _Courier | None = None
        super().__init__(graph, jobs=jobs, policy=policy, trace=trace,
                         metrics=metrics)

    def _check_executable(self) -> None:
        pass  # the parent ran ensure_executable() once, before forking

    def _tasks(self) -> list[Task]:
        return self._local

    def _await(self, flow: Flow, task: Task) -> None:
        if self.graph[flow.producer].node == self.node:
            super()._await(flow, task)
        else:  # released by the payload's arrival, not a local publish
            self._remote_consumers.setdefault(
                (flow.producer, flow.tag), []
            ).append(task.key)

    def _inject(self, producer: TaskKey, tag: str, payload) -> None:
        """A remote payload arrived: store it and release the local
        consumers waiting on it (the receiver thread's entry point)."""
        with self._work_ready:
            consumers = self._remote_consumers.pop((producer, tag), None)
            if consumers is None or self._failure is not None or self._cancelled:
                return
            self._store.inject(producer, tag, payload)
            if self._wake(consumers, self._inject_rr % self.jobs):
                self._work_ready.notify_all()
            self._inject_rr += 1

    def _fail_remote(self, exc: BaseException) -> None:
        """A peer (or the parent) asked us to stop with an error."""
        with self._work_ready:
            if self._failure is None:
                self._failure = exc
            self._work_ready.notify_all()

    def _send_remote(self, task: Task, outputs: dict) -> None:
        """One wire message per entry of the graph's message plan (the
        parent computed it before forking)."""
        assert self._courier is not None
        for tag, dst, nbytes in self.graph.message_plan().get(task.key, ()):
            self._courier.send_data(dst, task.key, tag, outputs[tag], nbytes)


def _relative_spans(spans, epoch):
    return [(start - epoch, end - epoch, label) for start, end, label in spans]


def _node_main(
    node: int,
    graph: TaskGraph,
    jobs: int,
    policy: str,
    want_trace: bool,
    want_metrics: bool,
    epoch: float,
    peers: dict[int, Connection],
    ctrl: Connection,
    unused: list[Connection],
    chaos=None,
) -> None:
    """Entry point of one node process (runs under fork)."""
    for conn in unused:  # inherited fds of other nodes' pipes
        conn.close()
    courier = _Courier(peers, node=node, chaos=chaos)
    receiver: _Receiver | None = None
    registry = MetricRegistry() if want_metrics else None
    try:
        executor = _NodeExecutor(graph, node, jobs=jobs, policy=policy,
                                 trace=want_trace, metrics=registry)
        executor._courier = courier
        receiver = _Receiver(executor, peers, ctrl)
        courier.start()
        handle = executor.start()
        receiver.start()
        try:
            handle.result()
            courier.stop(flush=True)
            outcome = ("done", None)
        except RunCancelled:
            courier.stop(flush=False)
            outcome = ("cancelled", None)
        except BaseException as exc:  # KernelError and anything unexpected
            if not isinstance(exc, KernelError):
                exc = KernelError(f"node {node} failed: {exc!r}")
            courier.abort_and_stop(str(exc))
            outcome = ("error", exc)
        courier.join(timeout=JOIN_GRACE)
        if outcome[0] == "done":
            busy = executor._recorder.busy_per_worker()
            stats = {
                "node": node,
                "completed": executor._recorder.completed(),
                "results": executor._store.results,
                "worker_busy": busy,
                "steals": executor._steals,
                "messages": courier.messages,
                "payload_bytes": courier.payload_bytes,
                "wire_bytes": courier.wire_bytes,
                "by_dst": {dst: tuple(v) for dst, v in courier.by_dst.items()},
                "send_busy": sum(e - s for s, e, _ in courier.spans),
                "recv_busy": sum(e - s for s, e, _ in receiver.spans),
            }
            if want_trace:
                stats["task_spans"] = [
                    (wid, kind, start - epoch, end - epoch, label, task_id)
                    for wid, lane in enumerate(executor._recorder._lanes)
                    for kind, start, end, label, task_id in lane
                ]
                stats["send_spans"] = _relative_spans(courier.spans, epoch)
                stats["recv_spans"] = _relative_spans(receiver.spans, epoch)
            if registry is not None:
                # Child-registry merge: fold this node's comm tallies in
                # and ship the snapshot home over the control pipe.
                msgs = registry.counter(
                    "messages_total",
                    "remote messages delivered, by lane", "messages")
                mbytes = registry.counter(
                    "message_bytes_total",
                    "declared ghost-copy payload bytes, by lane", "bytes")
                wire = registry.counter(
                    "wire_bytes_total",
                    "pickled frame bytes that crossed the pipes, by lane",
                    "bytes")
                for dst, (n, nbytes, wbytes) in courier.by_dst.items():
                    msgs.inc(n, src=node, dst=dst)
                    mbytes.inc(nbytes, src=node, dst=dst)
                    wire.inc(wbytes, src=node, dst=dst)
                comm = registry.counter(
                    "comm_busy_seconds_total",
                    "communication-thread busy time per node", "seconds")
                if courier.spans:
                    comm.inc(stats["send_busy"], node=node, lane="send")
                if receiver.spans:
                    comm.inc(stats["recv_busy"], node=node, lane="recv")
                # The worker-side counters were already folded in by the
                # executor's own report; snapshot and ship everything.
                stats["metrics"] = registry.snapshot()
            ctrl.send(("done", stats))
        else:
            ctrl.send(outcome)
    except BaseException as exc:  # pragma: no cover - defensive
        try:
            ctrl.send(("error", KernelError(f"node {node} crashed: {exc!r}")))
        except Exception:
            pass
        return
    finally:
        # Keep draining peers until the parent confirms everyone is
        # done, so no peer courier blocks on a full pipe at shutdown.
        if receiver is not None and receiver.is_alive():
            receiver.exit_seen.wait(timeout=JOIN_GRACE)
            receiver.stop()
            receiver.join(timeout=JOIN_GRACE)


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class ProcessExecutor:
    """Execute a finalized multi-node task graph on real OS processes.

    Parameters
    ----------
    graph:
        Kernel-carrying task graph whose tasks are placed on nodes
        ``0..procs-1``.
    procs:
        Node processes; defaults to the number of nodes the graph uses.
    jobs:
        Worker *threads per process*; defaults to spreading the host's
        cores over the processes (at least 1 each).
    policy:
        Per-process pool policy (``"fifo"`` / ``"lifo"`` / ``"priority"``).
    trace:
        Capture a merged wall-clock :class:`Trace` across processes
        (compute lanes per worker, ``-1``/``-2`` comm lanes for
        send/recv).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricRegistry`.  Each node
        process records into its own child registry; the children ship
        their snapshots home over the existing control pipes at
        shutdown and the parent merges them into this registry, so
        merged counters equal single-process totals exactly.
    """

    def __init__(
        self,
        graph: TaskGraph,
        procs: int | None = None,
        jobs: int | None = None,
        policy: str = "lifo",
        trace: bool = False,
        metrics: MetricRegistry | None = None,
    ) -> None:
        if not fork_available():
            raise RuntimeError(
                "the processes backend requires the POSIX 'fork' start "
                "method, which this platform does not provide"
            )
        graph.finalize()
        self.graph = graph
        self.procs = procs if procs is not None else default_procs(graph)
        if self.procs < 1:
            raise ValueError(f"need at least one process, got {self.procs}")
        top = max(graph.nodes_used(), default=0)
        if top >= self.procs:
            raise ValueError(
                f"graph places tasks on node {top} but only {self.procs} "
                "processes were requested"
            )
        if jobs is None:
            jobs = max(1, (os.cpu_count() or 1) // self.procs)
        if jobs < 1:
            raise ValueError(f"need at least one worker thread per process, got {jobs}")
        self.jobs = jobs
        self.policy = policy.lower()
        self.want_trace = trace
        self.metrics = metrics
        ensure_executable(graph, backend="processes")

        #: optional fault-injection hook (repro.chaos), forked into the
        #: node processes' couriers; set by the runner before start().
        self.chaos = None
        #: optional :class:`repro.chaos.checkpoint.CheckpointStore`;
        #: when set, a lost node's :class:`NodeLostError` carries the
        #: latest complete checkpoint step for restart.
        self.checkpoint_store = None

        self._started = False
        self._processes: list[mp.Process] = []
        self._ctrl: dict[int, Connection] = {}
        self._handle: RunHandle | None = None
        self._epoch = 0.0
        self._cancel_at: float | None = None
        self._lock = threading.Lock()

    @property
    def processes(self) -> list[mp.Process]:
        """The node processes (for liveness checks in tests/tools)."""
        return list(self._processes)

    def progress(self) -> dict:
        """Live view for :mod:`repro.obs.monitor`.  Children report
        their task tallies only at shutdown, so mid-run the parent can
        observe process liveness and elapsed time, not task counts."""
        alive = sum(1 for p in self._processes if p.is_alive())
        return {
            "total": len(self.graph),
            "elapsed_s": (time.perf_counter() - self._epoch)
            if self._started else 0.0,
            "procs_alive": alive,
            "procs": self.procs,
        }

    # -- public API -----------------------------------------------------

    def start(self) -> RunHandle:
        """Fork the node processes; returns immediately with the handle."""
        if self._started:
            raise RuntimeError(
                "a ProcessExecutor instance runs exactly once; build "
                "another executor to run the graph again"
            )
        self._started = True
        self.graph.message_plan()  # once, here: the children inherit it
        ctx = mp.get_context("fork")

        # Full mesh of duplex pipes (data + aborts can always flow).
        ends: dict[int, dict[int, Connection]] = {n: {} for n in range(self.procs)}
        for a, b in itertools.combinations(range(self.procs), 2):
            conn_a, conn_b = ctx.Pipe(duplex=True)
            ends[a][b] = conn_a
            ends[b][a] = conn_b
        ctrl_pairs = [ctx.Pipe(duplex=True) for _ in range(self.procs)]
        self._ctrl = {n: pair[0] for n, pair in enumerate(ctrl_pairs)}

        everything: list[Connection] = [
            *(c for per in ends.values() for c in per.values()),
            *(c for pair in ctrl_pairs for c in pair),
        ]
        self._epoch = time.perf_counter()
        for node in range(self.procs):
            mine = {*ends[node].values(), ctrl_pairs[node][1]}
            unused = [c for c in everything if c not in mine]
            proc = ctx.Process(
                target=_node_main,
                args=(node, self.graph, self.jobs, self.policy, self.want_trace,
                      self.metrics is not None, self._epoch, ends[node],
                      ctrl_pairs[node][1], unused, self.chaos),
                name=f"repro-procs-{node}",
                daemon=True,
            )
            proc.start()
            self._processes.append(proc)
        # The children own these now; drop the parent's copies so EOFs
        # propagate.
        for per in ends.values():
            for conn in per.values():
                conn.close()
        for _parent_end, child_end in ctrl_pairs:
            child_end.close()

        self._handle = RunHandle(self._request_cancel)
        threading.Thread(
            target=self._watch, name="repro-procs-watch", daemon=True
        ).start()
        return self._handle

    def run(self, timeout: float | None = None) -> ProcsReport:
        """Start, wait, and return the report (the blocking front door)."""
        return self.start().result(timeout)

    def cancel(self) -> bool:
        """Stop the run: every node pool is told to unwind (stragglers
        are terminated after ``JOIN_GRACE``) and the handle's
        ``result()`` raises :class:`RunCancelled`.  ``False`` before
        :meth:`start` and once the run has finished."""
        handle = self._handle
        return handle is not None and handle.cancel()

    # -- lifecycle -------------------------------------------------------

    def _request_cancel(self) -> None:
        with self._lock:
            if self._cancel_at is None:
                self._cancel_at = time.monotonic()
            conns = list(self._ctrl.values())
        for conn in conns:
            try:
                conn.send(("cancel",))
            except (BrokenPipeError, OSError):
                pass

    def _watch(self) -> None:
        """Collect every child's outcome, reap the processes, finish
        the handle.  Runs on a daemon thread in the parent."""
        waiting = dict(self._ctrl)  # node -> conn, removed once reported
        sentinels = {p.sentinel: node for node, p in enumerate(self._processes)}
        outcomes: dict[int, tuple] = {}
        first_error: BaseException | None = None
        forced = False

        def fail(node: int, exc: BaseException) -> None:
            nonlocal first_error
            outcomes.setdefault(node, ("error", exc))
            if first_error is None:
                first_error = exc
                # Peers may now be waiting on inputs that will never
                # come; tell everyone to stop.
                self._request_cancel()

        def lost(node: int, why: str) -> NodeLostError:
            """The typed loss report: which node, and the last complete
            checkpoint a recovery layer may restart from."""
            step = None
            if self.checkpoint_store is not None:
                try:
                    step = self.checkpoint_store.latest_complete()
                except Exception:  # pragma: no cover - a torn store
                    step = None
            return NodeLostError(why, node=node, checkpoint_step=step)

        while waiting:
            with self._lock:
                cancel_at = self._cancel_at
            if cancel_at is not None and time.monotonic() - cancel_at > JOIN_GRACE:
                # A pool ignored cancellation (e.g. a kernel stuck in C
                # code): forcibly terminate whoever has not reported.
                for node in list(waiting):
                    del waiting[node]
                    outcomes.setdefault(node, ("cancelled", None))
                forced = True
                break
            ready = conn_wait(
                [*waiting.values(), *sentinels], timeout=_POLL
            )
            for item in ready:
                if item in sentinels:
                    node = sentinels.pop(item)
                    if node in waiting:
                        del waiting[node]
                        code = self._processes[node].exitcode
                        fail(node, lost(node, (
                            f"node {node} process died without reporting "
                            f"(exit code {code})"
                        )))
                    continue
                node = next(n for n, c in waiting.items() if c is item)
                try:
                    outcome = item.recv()
                except (EOFError, OSError):
                    del waiting[node]
                    fail(node, lost(
                        node, f"node {node} closed its control pipe mid-run"
                    ))
                    continue
                del waiting[node]
                outcomes[node] = outcome
                if outcome[0] == "error":
                    fail(node, outcome[1])
        t_end = time.perf_counter()

        for conn in self._ctrl.values():  # release the children
            try:
                conn.send(("exit",))
            except (BrokenPipeError, OSError):
                pass
        self._reap(force=forced)
        for conn in self._ctrl.values():
            try:
                conn.close()
            except OSError:
                pass

        handle = self._handle
        assert handle is not None
        cancelled = [n for n, o in outcomes.items() if o[0] == "cancelled"]
        if first_error is not None:
            handle._finish(None, first_error)
        elif cancelled:
            handle._finish(None, RunCancelled(
                f"run cancelled with {len(cancelled)} of {self.procs} "
                "node processes unfinished"
            ))
        else:
            handle._finish(self._build_report(outcomes, t_end), None)

    def _reap(self, force: bool = False) -> None:
        if not force:  # give everyone a chance to exit voluntarily
            deadline = time.monotonic() + JOIN_GRACE
            for proc in self._processes:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self._processes:
            if proc.is_alive():
                proc.terminate()
        for proc in self._processes:
            proc.join(timeout=JOIN_GRACE)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=JOIN_GRACE)

    # -- report ----------------------------------------------------------

    def _build_report(self, outcomes: dict[int, tuple], t_end: float) -> ProcsReport:
        elapsed = t_end - self._epoch
        useful, redundant = self.graph.total_flops()
        census = self.graph.census()
        results: dict = {}
        completed: set = set()
        worker_busy: dict[int, float] = {}
        node_busy: dict[int, float] = {}
        comm_busy: dict[int, float] = {}
        by_pair: dict[tuple[int, int], tuple[int, int]] = {}
        messages = payload_bytes = wire_bytes = steals = 0
        trace: Trace | None = None
        spans: list[tuple] = []
        for node, outcome in sorted(outcomes.items()):
            stats = outcome[1]
            results.update(stats["results"])
            completed.update(stats["completed"])
            for wid, busy in stats["worker_busy"].items():
                worker_busy[node * self.jobs + wid] = busy
            node_busy[node] = sum(stats["worker_busy"].values())
            comm_busy[node] = stats["send_busy"] + stats["recv_busy"]
            steals += stats["steals"]
            messages += stats["messages"]
            payload_bytes += stats["payload_bytes"]
            wire_bytes += stats["wire_bytes"]
            for dst, (msgs, nbytes, _wire) in stats["by_dst"].items():
                by_pair[(node, dst)] = (msgs, nbytes)
            if self.want_trace:
                for wid, kind, start, end, label, task_id in stats["task_spans"]:
                    spans.append((node, wid, kind, start, end, label, task_id))
                # Comm labels are (producer, tag, peer) tuples; the
                # producer key is the span's task identity.
                for start, end, label in stats["send_spans"]:
                    spans.append((node, SEND_LANE, "send", start, end, label, label[0]))
                for start, end, label in stats["recv_spans"]:
                    spans.append((node, RECV_LANE, "recv", start, end, label, label[0]))
            if self.metrics is not None and "metrics" in stats:
                self.metrics.merge(stats["metrics"])
        if self.want_trace:
            trace = build_trace(spans)
            if trace_validation_enabled():
                trace.validate()
        snapshot: MetricsSnapshot | None = None
        if self.metrics is not None:
            self.metrics.gauge(
                "run_elapsed_seconds", "wall-clock makespan of the run",
                "seconds").set(elapsed)
            snapshot = self.metrics.snapshot()
        return ProcsReport(
            elapsed=elapsed,
            tasks_run=len(completed),
            messages=messages,
            message_bytes=payload_bytes,
            local_edges=census.local_edges,
            local_bytes=census.local_bytes,
            useful_flops=useful,
            redundant_flops=redundant,
            node_busy=node_busy,
            comm_busy=comm_busy,
            max_comm_backlog=0,
            trace=trace,
            results=results,
            metrics=snapshot,
            jobs=self.jobs,
            policy=self.policy,
            steals=steals,
            worker_busy=worker_busy,
            completed=frozenset(completed),
            procs=self.procs,
            wire_bytes=wire_bytes,
            by_pair=by_pair,
        )


def execute_procs(
    graph: TaskGraph,
    procs: int | None = None,
    jobs: int | None = None,
    policy: str = "lifo",
    trace: bool = False,
    timeout: float | None = None,
    metrics: MetricRegistry | None = None,
) -> ProcsReport:
    """One-shot convenience: run ``graph`` on a fresh process pool."""
    return ProcessExecutor(
        graph, procs=procs, jobs=jobs, policy=policy, trace=trace,
        metrics=metrics,
    ).run(timeout)


__all__ = [
    "JOIN_GRACE",
    "ProcessExecutor",
    "ProcsReport",
    "RECV_LANE",
    "SEND_LANE",
    "default_procs",
    "execute_procs",
    "fork_available",
]
