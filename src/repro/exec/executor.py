"""Shared-memory parallel executor for finalized task graphs.

This is the "real hardware" counterpart of the discrete-event
simulator in :mod:`repro.runtime.engine`: it runs the *same*
:class:`~repro.runtime.graph.TaskGraph` objects (base-PaRSEC,
CA-PaRSEC, PETSc-lite -- any graph whose tasks carry kernels) on a
pool of worker threads.

Structure -- a PaRSEC node, as the simulator models one:

* one ready queue (:func:`repro.runtime.scheduler.make_queue`, the
  object the engine keeps per simulated node), seeded with the
  in-degree-0 tasks in graph order;
* every worker pops its next task from that queue, so ``priority``
  means "boundary tiles first" across the whole pool;
* completing a task publishes its outputs into a refcounted payload
  store and releases its consumers' dependency counts; tasks reaching
  zero are pushed to the queue;
* one mutex guards the queue and the bookkeeping -- kernels run
  outside it;
* the thread that calls :meth:`ThreadedExecutor.run` is worker 0, as
  the thread waiting on a PaRSEC context computes too: a run starts
  ``jobs - 1`` threads.

The report mirrors :class:`~repro.runtime.report.EngineReport` (it
*is* one, extended), so :class:`~repro.core.report.RunResult`, the
occupancy/Gantt analyses and the Chrome-trace exporter all work
unchanged on measured runs.
"""

from __future__ import annotations

import threading
from collections.abc import Collection
from dataclasses import dataclass

from ..obs import trace_validation_enabled
from ..obs.metrics import MetricRegistry, publish_run
from ..runtime.report import EngineReport, KernelError, RunCancelled
from ..runtime.graph import TaskGraph
from ..runtime.scheduler import DEFAULT_POLICY, make_queue
from ..runtime.store import PayloadStore
from ..runtime.task import Flow, Task, TaskKey
from .wallclock_trace import HOST_NODE, WallClockRecorder


def ensure_executable(graph: TaskGraph, backend: str = "threads") -> None:
    """Refuse timing-only graphs up front: a task without a kernel can
    satisfy control edges only (zero-byte flows).  Shared by every
    real-execution backend (threads and processes)."""
    for task in graph:
        if task.kernel is not None:
            continue
        for tag in graph.out_tags.get(task.key, ()):
            if graph.flow_bytes(task.key, tag):
                raise ValueError(
                    f"task {task.key!r} has no kernel but consumers expect "
                    f"payload {tag!r}; the {backend} backend needs a graph "
                    "built with with_kernels=True (runner mode 'execute')"
                )


@dataclass
class ExecReport(EngineReport):
    """An :class:`EngineReport` whose times are wall-clock seconds.

    ``elapsed`` is measured, ``node_busy`` holds the single host node's
    total worker-busy seconds (``worker_busy``: per worker thread), and
    the extra fields describe the thread pool itself.  ``messages`` is
    always 0: shared memory moves no network messages (the whole point
    of comparing against the simulator's modelled cluster).
    """

    #: number of worker threads that executed the graph
    jobs: int = 0
    #: scheduling policy the pool ran under
    policy: str = DEFAULT_POLICY
    #: always 0: a node has one ready queue, nothing is stolen.  Kept
    #: only because ``benchmarks/wallclock/batch_workloads.py`` (frozen)
    #: reads it for its ``exec.steals`` row; both go in the next
    #: benchmark change.
    steals: int = 0
    #: keys of every task that completed (the determinism tests compare
    #: these sets across runs -- schedules may differ, sets may not)
    completed: frozenset = frozenset()

    @property
    def worker_occupancy(self) -> float:
        """Mean busy fraction of the worker threads over the run."""
        if self.elapsed <= 0 or self.jobs <= 0:
            return 0.0
        return sum(self.worker_busy.values()) / (self.jobs * self.elapsed)


class ThreadedExecutor:
    """Execute a finalized, kernel-carrying task graph on real threads.

    Parameters
    ----------
    graph:
        The task graph; every task that owns consumed data flows must
        carry a kernel (build with ``with_kernels=True``).
    jobs:
        Worker threads; ``None`` means 1.
    policy:
        ``"fifo"`` / ``"lifo"`` / ``"priority"``: the pool's one ready
        queue (:mod:`repro.runtime.scheduler`, as in the simulator).
    trace:
        Capture a wall-clock :class:`~repro.runtime.trace.Trace`.
    metrics:
        Optional :class:`~repro.obs.metrics.MetricRegistry`.  Nothing
        is tallied per task for it: the finished report is folded into
        it once (:func:`~repro.obs.metrics.publish_run`).

    An executor is built for one graph, runs it once and returns a
    report; a second :meth:`run` raises.
    """

    def __init__(
        self,
        graph: TaskGraph,
        jobs: int | None = None,
        policy: str = DEFAULT_POLICY,
        trace: bool = False,
        metrics: MetricRegistry | None = None,
    ) -> None:
        graph.finalize()
        self.graph = graph
        self.jobs = jobs if jobs is not None else 1
        if self.jobs < 1:
            raise ValueError(f"need at least one worker thread, got {self.jobs}")
        self.policy = policy.lower()
        self.want_trace = trace
        self.metrics = metrics
        self._lock = threading.Lock()
        self._work_ready = threading.Condition(self._lock)
        self._ready = make_queue(self.policy)

        # Bookkeeping shared by all workers, guarded by _lock.
        self._pending: dict[TaskKey, int] = {}
        self._release: dict[TaskKey, list[TaskKey]] = {}
        self._store = PayloadStore(self.graph, self._tasks())
        self._unfinished = len(self._tasks())
        self._failure: BaseException | None = None
        self._cancelled = False
        self._started = False
        self._finished = False

        #: the one per-task record: worker ``w`` appends a span tuple to
        #: lane ``w`` after each kernel, and every tally in the report
        #: (completed set, kind counts, busy seconds) is a fold of it
        self._recorder = WallClockRecorder(self.jobs)
        self._t_begin = 0.0
        self._check_executable()

    # -- validation -----------------------------------------------------

    def _check_executable(self) -> None:
        ensure_executable(self.graph, backend="threads")

    # -- setup -----------------------------------------------------------

    def _tasks(self) -> Collection[Task]:
        """The tasks this executor runs: the whole graph (the procs
        backend's per-node subclass narrows it to its node's)."""
        return self.graph.tasks.values()

    def _prepare(self) -> None:
        """Build pending counts and release lists; the in-degree-0
        tasks enter the ready queue in graph order."""
        for task in self._tasks():
            self._pending[task.key] = len(task.inputs)
            for flow in task.inputs:
                self._await(flow, task)
            if not task.inputs:
                self._ready.push(task)

    def _await(self, flow: Flow, task: Task) -> None:
        """``task`` waits on ``flow``: its producer's :meth:`_publish`
        releases it."""
        self._release.setdefault(flow.producer, []).append(task.key)

    # -- public API --------------------------------------------------------

    def run(self) -> ExecReport:
        """Execute the graph: the calling thread is worker 0 beside
        ``jobs - 1`` worker threads.  Returns the report once every
        worker is joined, or raises the first kernel error (a
        ``SystemExit`` a kernel raised, as it came) /
        :class:`RunCancelled`.  Anything else that escapes worker 0
        (a ``KeyboardInterrupt``) stops the others first."""
        with self._lock:
            if self._started:
                raise RuntimeError(
                    "a ThreadedExecutor instance runs exactly once; build "
                    "another executor to run the graph again"
                )
            self._started = True
        self._prepare()
        self._t_begin = self._recorder.start()
        threads = [
            threading.Thread(
                target=self._worker, args=(wid,), name=f"repro-exec-{wid}", daemon=True
            )
            for wid in range(1, self.jobs)
        ]
        for t in threads:
            t.start()
        try:
            self._worker(0)
        except BaseException:
            self._request_cancel()
            raise
        finally:
            for t in threads:
                t.join()
            elapsed = self._recorder.now() - self._t_begin
            with self._lock:
                self._finished = True
        if self._failure is not None:
            raise self._failure
        if self._cancelled:
            raise RunCancelled(
                f"run cancelled with {self._unfinished} of "
                f"{len(self.graph)} tasks unfinished"
            )
        return self._build_report(elapsed)

    def cancel(self) -> bool:
        """Stop the run from another thread: workers finish the task in
        hand and take no more, and :meth:`run` raises
        :class:`RunCancelled` -- even where every task had already run.
        ``False`` before :meth:`run` starts and once it has returned."""
        with self._work_ready:
            if not self._started or self._finished:
                return False
            self._cancelled = True
            self._work_ready.notify_all()
            return True

    # -- lifecycle ----------------------------------------------------------

    def _request_cancel(self) -> None:
        with self._work_ready:
            self._cancelled = True
            self._work_ready.notify_all()

    def progress(self) -> dict:
        """Live view of the run for :mod:`repro.obs.monitor`.  Reads
        shared integers without the lock -- a sample may be one task
        stale, which is fine for a progress display."""
        total = len(self.graph)
        done = total - self._unfinished
        now = self._recorder.now()
        return {
            "done": done,
            "total": total,
            "elapsed_s": (now - self._t_begin) if self._started else 0.0,
            "busy_s": sum(self._recorder.busy_per_worker().values()),
            "workers": self.jobs,
        }

    def _build_report(self, elapsed: float) -> ExecReport:
        useful, redundant = self.graph.total_flops()
        worker_busy = self._recorder.busy_per_worker()
        local_edges = sum(len(t.inputs) for t in self.graph)
        local_bytes = sum(f.nbytes for t in self.graph for f in t.inputs)
        completed = frozenset(self._recorder.completed())
        trace = self._recorder.to_trace() if self.want_trace else None
        if trace is not None and trace_validation_enabled():
            trace.validate()
        report = ExecReport(
            elapsed=elapsed,
            tasks_run=len(completed),
            messages=0,
            message_bytes=0,
            local_edges=local_edges,
            local_bytes=local_bytes,
            useful_flops=useful,
            redundant_flops=redundant,
            node_busy={HOST_NODE: sum(worker_busy.values())},
            comm_busy={},
            max_comm_backlog=0,
            trace=trace,
            results=self._store.results,
            jobs=self.jobs,
            policy=self.policy,
            worker_busy=worker_busy,
            completed=completed,
        )
        if self.metrics is not None:
            report.metrics = publish_run(self.metrics, report, self.graph)
        return report

    # -- worker loop ----------------------------------------------------------

    def _next_task(self) -> Task | None:
        """Pop the ready queue, or sleep; ``None`` means shut down."""
        with self._work_ready:
            while True:
                self._poll()
                if self._failure is not None or self._cancelled:
                    return None
                if self._ready:
                    return self._ready.pop()
                if self._unfinished == 0:
                    return None
                self._idle_wait()

    def _poll(self) -> None:
        """Hook, under the lock before every pop: a node of the procs
        backend takes in its remote inputs here (a whole graph has none)."""

    def _idle_wait(self) -> None:
        """Hook: sleep, lock released, until a worker publishes, fails
        or the run is cancelled."""
        self._work_ready.wait()

    def _worker(self, wid: int) -> None:
        recorder = self._recorder
        while True:
            task = self._next_task()
            if task is None:
                return
            try:
                with self._lock:
                    inputs = self._store.gather(task)
                start = recorder.now()
                outputs = (
                    dict(task.kernel(inputs, task)) if task.kernel is not None else {}
                )
                end = recorder.now()
                self._publish(task, outputs)
            except BaseException as exc:  # noqa: BLE001 - raised by run()
                # A SystemExit on any worker stops the run as a kernel
                # error does; run() re-raises it as it came.
                failure = exc
                if isinstance(exc, Exception) and not isinstance(exc, KernelError):
                    failure = KernelError(
                        f"kernel of task {task.key!r} (kind {task.kind!r}) "
                        f"failed: {exc}"
                    )
                    failure.__cause__ = exc
                with self._work_ready:
                    if self._failure is None:
                        self._failure = failure
                    self._work_ready.notify_all()
                return
            recorder.record(wid, task.kind, start, end, task.key, task_id=task.key)

    # -- dataflow bookkeeping ---------------------------------------------------

    def _publish(self, task: Task, outputs: dict) -> None:
        """Store outputs, free inputs, release consumers -- one
        critical section."""
        with self._work_ready:
            outputs = self._store.publish(task, outputs)
            self._send_remote(task, outputs)
            self._store.release(task)
            self._unfinished -= 1
            if self._wake(self._release.get(task.key, ())):
                self._work_ready.notify_all()

    def _send_remote(self, task: Task, outputs: dict) -> None:
        """Shared memory moves no messages."""

    def _wake(self, consumers) -> bool:
        """One dependency of each of ``consumers`` is met; the ones it
        readies enter the ready queue.  True when a sleeping worker
        has something to wake for (new work, or the run's end)."""
        woke = self._unfinished == 0
        for consumer_key in consumers:
            self._pending[consumer_key] -= 1
            if self._pending[consumer_key] == 0:
                self._ready.push(self.graph[consumer_key])
                woke = True
        return woke


def execute(
    graph: TaskGraph,
    jobs: int | None = None,
    policy: str = DEFAULT_POLICY,
    trace: bool = False,
    metrics: MetricRegistry | None = None,
) -> ExecReport:
    """One-shot convenience: run ``graph`` on a fresh pool."""
    return ThreadedExecutor(
        graph, jobs=jobs, policy=policy, trace=trace, metrics=metrics
    ).run()


__all__ = [
    "ExecReport",
    "ThreadedExecutor",
    "ensure_executable",
    "execute",
]
