"""The solver service: queue + workers + cache, wired.

:class:`SolverService` is the façade the CLI (``repro serve`` /
``repro submit``) and :class:`~repro.serve.client.SolverClient` talk
to.  One service owns

* a :class:`~repro.serve.queue.JobQueue` (admission control, tenant
  fair share, priorities, queued-deadline enforcement),
* ``workers`` runner threads, each owning one warm worker
  (:mod:`repro.serve.pool`: an in-process object or a persistent
  forked child),
* an optional :class:`~repro.serve.cache.ResultCache` probed at
  admission -- a hit resolves the future immediately and executes
  **zero** tasks (the obs counters prove it), and
* a :class:`~repro.obs.metrics.MetricRegistry` every layer publishes
  into, so ``repro monitor`` and the regression gate work against a
  live service.

Threading model: each runner loops ``take a job and its queued
duplicates -> solve once on its worker -> resolve every member``; the
solve is the only dispatch unit.  The worker is the runner's for life:
spawned on the first solve, replaced when it died, a forked child
closed after :data:`IDLE_TIMEOUT_S` without work; ``stop()`` closes it
once the runners are joined.  One reaper thread enforces deadlines:
queued jobs are purged, a member of a running solve fails at its own
deadline, and the solve is cancelled only once no member is left
waiting on it.  Per-solve metrics come back as snapshots and are
merged into the service registry under one lock, keeping every counter
cell single-writer; the same lock guards the runners' worker table.
"""

from __future__ import annotations

import tempfile
import threading
import time
import warnings
from collections import OrderedDict
from concurrent.futures import Future
from dataclasses import dataclass, field, replace
from pathlib import Path

from ..obs.lifecycle import FlightRecorder, LifecycleTracer
from ..obs.metrics import MetricRegistry
from .cache import ResultCache
from .pool import WORKER_KINDS
from .queue import Job, JobQueue
from .request import (
    DeadlineExpired,
    JobSkipped,
    ServeError,
    ServiceClosed,
    SolveRequest,
    WorkerDied,
)

#: how an admitted request's future failed -> its completion status
#: (any other exception is an "error")
_STATUS_OF = {DeadlineExpired: "expired", JobSkipped: "skipped",
              ServiceClosed: "closed"}

#: reaper cadence: how late a deadline can be noticed
REAP_INTERVAL_S = 0.05
#: a forked child that served nothing for this long is closed (the
#: next solve forks a fresh, cold one); in-process workers hold
#: nothing and stay
IDLE_TIMEOUT_S = 30.0


class _Solve:
    """One dispatch in flight: a leader and its duplicates, solved
    once.  The solve runs to the latest member deadline (none if any
    member has none); ``waiting`` is the members nobody resolved yet,
    guarded by the service's ``_lock`` -- whoever removes a member
    resolves it, so each future resolves exactly once."""

    def __init__(self, jobs: list[Job]) -> None:
        self.waiting = list(jobs)
        deadlines = [job.deadline for job in jobs]
        self.deadline = None if None in deadlines else max(deadlines)
        self.worker = None


@dataclass
class ServiceConfig:
    """Every serving knob in one place (the CLI mirrors these)."""

    #: pool kind: "threads" (in-process workers) or "processes"
    #: (persistent forked children)
    pool: str = "threads"
    #: concurrent solves in flight (= runner threads, one worker each)
    workers: int = 2
    #: unread: a request's own ``jobs`` knob is what a solve runs with.
    #: Kept because ``benchmarks/wallclock/serve_workload.py`` passes it.
    jobs: int | None = None
    queue_depth: int = 64
    #: per-tenant in-flight cap (None -> unbounded)
    tenant_limit: int | None = 2
    #: per-tenant overrides of ``tenant_limit``
    tenant_limits: dict = field(default_factory=dict)
    #: result cache: a path, None for the default location, or False
    #: to disable caching entirely
    cache: object = None
    #: deadline applied to requests that do not carry one (None = none)
    default_deadline_s: float | None = None
    #: failed-job retries granted when the request does not set its
    #: own budget (0 = fail on first error, the historical behaviour);
    #: a retried chaos job resumes from its last checkpoint
    retry_budget: int = 0
    #: directory the chaos checkpoint/fault state lives under (None ->
    #: a per-signature directory beneath the system temp dir)
    checkpoint_dir: object = None
    #: request-scoped lifecycle tracing: spans, per-tenant SLO
    #: histograms and the flight recorder.  Always-on by design (the
    #: bench gates its overhead under 3%); False turns all three off.
    lifecycle: bool = True
    #: directory flight-recorder dumps land in (None ->
    #: ``<tempdir>/repro-postmortem``)
    dump_dir: object = None
    #: capture the execution-level Trace of each request so
    #: :meth:`SolverService.write_timeline` can export task kernels
    #: under their lifecycle spans (off by default: traces are big)
    trace_requests: bool = False
    #: telemetry sampling interval in seconds: a sampler thread
    #: snapshots the registry into a bounded
    #: :class:`~repro.obs.timeseries.TimeSeriesStore` and (with
    #: ``alert_rules``) evaluates alerts after each sample.  None
    #: disables the sampler, the store and alerting entirely -- the
    #: same zero-cost contract ``metrics=None`` set
    sampling_interval_s: float | None = None
    #: alert rules evaluated on each sample: a rules-file path, a
    #: parsed rule list (:func:`repro.obs.alerts.parse_rules` input,
    #: including pre-built :class:`~repro.obs.alerts.AlertRule`
    #: objects), or None for no alerting.  Requires sampling
    alert_rules: object = None
    #: JSONL file alert transitions append to (None = no file sink)
    alert_log: object = None
    #: retention cap on ``postmortem-*.json`` files in ``dump_dir``
    #: (oldest pruned after each dump; None = keep everything)
    max_postmortems: int | None = 32


class SolverService:
    """A persistent stencil-solver service (in-process).

    Use as a context manager or call :meth:`start` / :meth:`stop`::

        with SolverService(ServiceConfig(workers=2)) as svc:
            fut = svc.submit(SolveRequest(problem, tenant="alice"))
            outcome = fut.result(timeout=60)
    """

    def __init__(
        self,
        config: ServiceConfig | None = None,
        metrics: MetricRegistry | None = None,
        **overrides,
    ) -> None:
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            config = replace(config, **overrides)
        if config.pool not in WORKER_KINDS:
            raise ValueError(
                f"unknown pool kind {config.pool!r}; "
                f"choices: {tuple(WORKER_KINDS)}"
            )
        if config.workers < 1:
            raise ValueError(f"workers must be positive, got {config.workers}")
        self.config = config
        self.metrics = metrics if metrics is not None else MetricRegistry()

        self.recorder: FlightRecorder | None = None
        self.lifecycle: LifecycleTracer | None = None
        if config.lifecycle:
            self.recorder = FlightRecorder(max_dumps=config.max_postmortems)
            self.lifecycle = LifecycleTracer(
                metrics=self.metrics, recorder=self.recorder
            )

        self.queue = JobQueue(
            max_depth=config.queue_depth,
            tenant_limit=config.tenant_limit,
            tenant_limits=config.tenant_limits,
            metrics=self.metrics,
            lifecycle=self.lifecycle,
        )
        self.cache: ResultCache | None = None
        if config.cache is not False:
            self.cache = ResultCache(
                path=None if config.cache is None else config.cache,
                metrics=self.metrics,
            )

        #: time-series store / sampler / alert engine -- all None when
        #: ``sampling_interval_s`` is None (nothing is built, nothing
        #: is paid; the zero-cost contract the bench gates)
        self.series = None
        self.alerts = None
        self._sampler = None
        if config.sampling_interval_s is not None:
            from ..obs.timeseries import TelemetrySampler, TimeSeriesStore
            self.series = TimeSeriesStore()
            if config.alert_rules is not None:
                from ..obs.alerts import AlertEngine, JsonlSink
                from ..obs.alerts import load_rules, parse_rules
                rules = config.alert_rules
                if isinstance(rules, (str, Path)):
                    rules = load_rules(rules)
                else:
                    rules = parse_rules(rules)
                sinks = []
                if config.alert_log is not None:
                    sinks.append(JsonlSink(config.alert_log))
                self.alerts = AlertEngine(
                    self.series, rules, sinks=sinks,
                    recorder=self.recorder, dump_dir=self._dump_dir(),
                    on_dump=self._note_dump,
                )
            self._sampler = TelemetrySampler(
                self.metrics, self.series,
                interval_s=config.sampling_interval_s,
                progress=self.progress, on_sample=self._on_sample,
            )

        # Registry mutations outside the queue/cache locks
        # happen under this one (merge + service counters), and so do
        # changes to the runners' worker table.
        self._mlock = threading.Lock()
        #: runner slot -> the worker that runner owns (None: not
        #: spawned yet, retired, or dropped dead)
        self._workers: list = [None] * config.workers
        self._spawned = 0
        self._g_workers = self.metrics.gauge(
            "serve_pool_workers", "live pool workers", "workers"
        )
        self._c_replaced = self.metrics.counter(
            "serve_pool_replaced_total",
            "dead workers replaced by health checks", "workers",
        )
        self._c_retired = self.metrics.counter(
            "serve_pool_retired_total",
            "workers retired by the idle timeout", "workers",
        )
        self._c_submitted = self.metrics.counter(
            "serve_jobs_submitted_total", "requests admitted, by tenant",
            "jobs",
        )
        self._c_completed = self.metrics.counter(
            "serve_jobs_completed_total", "requests finished, by status",
            "jobs",
        )
        self._c_expired = self.metrics.counter(
            "serve_deadline_expired_total",
            "jobs cancelled by their deadline, by where it caught them",
        )
        self._c_retried = self.metrics.counter(
            "serve_jobs_retried_total",
            "failed jobs re-queued within their retry budget", "jobs",
        )
        self._c_node_lost = self.metrics.counter(
            "serve_node_lost_total",
            "solve attempts lost to a (simulated) node death", "attempts",
        )
        self._c_batches = self.metrics.counter(
            "serve_batches_total", "pool submissions dispatched", "batches"
        )
        self._c_dedup = self.metrics.counter(
            "serve_dedup_total",
            "duplicate jobs served by their leader's solve", "jobs",
        )

        self._lock = threading.Lock()
        #: leader seq -> the solve in flight (the reaper's view)
        self._running: dict[int, _Solve] = {}
        #: trace_id -> execution-level Trace (bounded; filled only
        #: under ``trace_requests`` for the combined timeline export)
        self.timelines: "OrderedDict[str, object]" = OrderedDict()
        #: flight-recorder dump paths written by this service
        self.dumps: list[Path] = []
        self._runners: list[threading.Thread] = []
        self._reaper: threading.Thread | None = None
        self._stop = threading.Event()
        self._started = False
        self._t_start = 0.0
        self._submitted = 0
        self._finished = 0

    # -- lifecycle -------------------------------------------------------

    def start(self) -> "SolverService":
        if self._started:
            return self
        self._started = True
        self._stop.clear()
        self._t_start = time.monotonic()
        self._runners = [
            threading.Thread(
                target=self._runner, args=(i,),
                name=f"repro-serve-runner-{i}", daemon=True,
            )
            for i in range(self.config.workers)
        ]
        for t in self._runners:
            t.start()
        self._reaper = threading.Thread(
            target=self._reap, name="repro-serve-reaper", daemon=True
        )
        self._reaper.start()
        if self._sampler is not None:
            self._sampler.start()
        return self

    def stop(self, timeout: float = 10.0) -> None:
        """Drain nothing, fail everything queued, join every thread,
        then close every worker -- including the one a runner stuck
        past ``timeout`` still executes on: a killed child fails that
        runner's solve and lets it exit.  Safe to call twice."""
        if not self._started:
            return
        self._started = False
        self._stop.set()
        self.queue.close()
        for t in self._runners:
            t.join(timeout)
        if self._reaper is not None:
            self._reaper.join(timeout)
        if self._sampler is not None:
            # Final sample (and alert pass) with every runner drained,
            # before the workers the progress() probe counts are closed.
            self._sampler.stop(timeout)
            if self.alerts is not None:
                self.alerts.close()
        for slot in range(len(self._workers)):
            self._drop_worker(slot)
        self._runners = []
        self._reaper = None

    def __enter__(self) -> "SolverService":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.stop()

    # -- submission ------------------------------------------------------

    def submit(
        self,
        request: SolveRequest | None = None,
        **knobs,
    ) -> Future:
        """Admit one request; returns a future of its
        :class:`~repro.serve.request.SolveOutcome`.

        Raises :class:`QueueFullError` synchronously when admission
        control rejects (the fast-reject contract) and
        :class:`ServiceClosed` when the service is not running.  A
        result-cache hit resolves the future before this returns,
        executing nothing.
        """
        if request is None:
            request = SolveRequest(**knobs)
        elif knobs:
            request = request.replace(**knobs)
        if not self._started:
            raise ServiceClosed("service not started; call start() first")
        t_admit = time.monotonic()
        signature = request.signature()
        future: Future = Future()
        future.add_done_callback(self._count_done)
        with self._mlock:
            self._submitted += 1
            admit_seq = self._submitted
            self._c_submitted.inc(tenant=request.tenant)
        trace_id = None
        if self.lifecycle is not None:
            trace_id = self.lifecycle.begin(
                signature, admit_seq, tenant=request.tenant, t_admit=t_admit
            )
        if self.cache is not None:
            t_probe = time.monotonic()
            hit = self.cache.get(signature)
            if self.lifecycle is not None:
                self.lifecycle.span(
                    trace_id, "cache_probe", t_probe, time.monotonic(),
                    hit=hit is not None,
                )
            if hit is not None:
                future.set_result(replace(
                    hit.with_tenant(request.tenant), trace_id=trace_id,
                ))
                if self.lifecycle is not None:
                    self.lifecycle.finish(trace_id, "cached")
                return future
        deadline_s = request.deadline_s
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        job = Job(
            request=request,
            future=future,
            signature=signature,
            seq=self.queue.next_seq(),
            enqueued=time.monotonic(),
            deadline=(
                None if deadline_s is None
                else time.monotonic() + deadline_s
            ),
        )
        if trace_id is not None:
            job.extra["trace_id"] = trace_id
        try:
            self.queue.submit(job)
        except ServeError as exc:
            # The one outcome no future carries: submit() raises it.
            with self._mlock:
                self._finished += 1
                self._c_completed.inc(status="rejected")
            if self.lifecycle is not None:
                self.lifecycle.span(
                    trace_id, "admit", t_admit, time.monotonic(),
                    status="rejected", seq=job.seq, error=repr(exc),
                )
                self.lifecycle.finish(trace_id, "rejected")
            raise
        if self.lifecycle is not None:
            self.lifecycle.span(
                trace_id, "admit", t_admit, time.monotonic(),
                seq=job.seq, deadline_s=deadline_s,
            )
        return future

    # -- execution -------------------------------------------------------

    def _runner(self, slot: int) -> None:
        idle_since = time.monotonic()
        while not self._stop.is_set():
            # Wake without work only to retire an idle child; stop()
            # wakes an untimed wait by closing the queue.
            worker = self._workers[slot]
            retire_at = wait = None
            if worker is not None and worker.retire_when_idle:
                retire_at = idle_since + IDLE_TIMEOUT_S
                wait = max(0.0, retire_at - time.monotonic())
            leader = self.queue.take(timeout=wait)
            if leader is not None:
                self._solve(slot, [leader, *self.queue.take_duplicates(leader)])
                # Its future holds the result: waiting for the next
                # job must not keep the last one's grid alive.
                leader = None
                idle_since = time.monotonic()
            elif retire_at is not None and time.monotonic() >= retire_at:
                self._drop_worker(slot, self._c_retired)

    def _solve(self, slot: int, jobs: list[Job]) -> None:
        """One dispatch: solve ``jobs`` (a leader and its queued
        duplicates) once on runner ``slot``'s worker, then resolve the
        members the reaper has not already failed at their deadlines."""
        leader = jobs[0]
        solve = _Solve(jobs)
        with self._mlock:
            self._c_batches.inc()
            if len(jobs) > 1:
                self._c_dedup.inc(len(jobs) - 1)
        t_dispatch = time.monotonic()
        try:
            try:
                worker = self._live_worker(slot)
                if self.lifecycle is not None:
                    now = time.monotonic()
                    for job in jobs:
                        trace_id = job.extra.get("trace_id")
                        if trace_id is not None:
                            self.lifecycle.span(
                                trace_id, "dispatch", t_dispatch, now,
                                worker=worker.name, seq=job.seq,
                                leader=leader.seq,
                            )
                with self._lock:
                    solve.worker = worker
                    self._running[leader.seq] = solve
                result = worker.run((leader.seq, leader.request, solve.deadline,
                                     leader.extra.get("trace_id")))
            finally:
                with self._lock:
                    self._running.pop(leader.seq, None)
                    waiting, solve.waiting = solve.waiting, []
            self._resolve(waiting, *result)
        except Exception as exc:  # noqa: BLE001 - fail the solve, keep serving
            self._fail([job for job in waiting if not job.future.done()], exc)
        finally:
            self._drop_dead(slot)
            for job in jobs:
                self.queue.task_done(job.tenant)

    # -- the runner's worker ---------------------------------------------

    def _live_worker(self, slot: int):
        """The worker runner ``slot`` owns, spawned if it has none (its
        first solve, or the last one was retired or died)."""
        self._drop_dead(slot)
        worker = self._workers[slot]
        if worker is None:
            with self._mlock:
                self._spawned += 1
                name = f"pool-{self.config.pool}-{self._spawned}"
            # Forked outside the lock: only the owner fills its slot.
            worker = WORKER_KINDS[self.config.pool](
                name, checkpoint_dir=self.config.checkpoint_dir,
                want_trace=self.config.trace_requests,
            )
            with self._mlock:
                self._workers[slot] = worker
                self._g_workers.set(self._live_locked())
        return worker

    def _drop_dead(self, slot: int) -> None:
        worker = self._workers[slot]
        if worker is not None and not worker.alive():
            self._drop_worker(slot, self._c_replaced)

    def _drop_worker(self, slot: int, counter=None) -> None:
        """Close runner ``slot``'s worker, if it holds one, counting
        why (``counter``: replaced or retired; None at shutdown)."""
        with self._mlock:
            worker, self._workers[slot] = self._workers[slot], None
            if worker is None:
                return
            if counter is not None:
                counter.inc(kind=self.config.pool)
            self._g_workers.set(self._live_locked())
        worker.close()

    def _live_locked(self) -> int:
        return sum(w is not None for w in self._workers)

    def _finish_trace(self, job: Job, status: str) -> None:
        if self.lifecycle is not None:
            self.lifecycle.finish(job.extra.get("trace_id"), status)

    def _stash_timeline(self, trace_id: str | None, trace) -> None:
        if trace_id is None or trace is None:
            return
        with self._lock:
            self.timelines[trace_id] = trace
            while len(self.timelines) > 32:
                self.timelines.popitem(last=False)

    def _resolve(self, jobs: list[Job], result, snapshot, wspans) -> None:
        """Resolve the members still waiting on a finished solve,
        account for them, then persist the outcome."""
        status, payload = result
        if self.lifecycle is not None and wspans:
            # Fold the worker's spans in *before* finishing any trace,
            # so the SLO execute aggregate sees them.
            self.lifecycle.adopt(wspans)
        stored = None
        if status == "ok":
            outcome = payload
            self._stash_timeline(outcome.trace_id, outcome.trace)
            if self.cache is not None and outcome.grid is not None:
                stored = replace(outcome, trace=None)
                self.cache.remember(outcome.signature, stored)
            for job in jobs:
                job.complete(replace(
                    outcome.with_tenant(job.tenant),
                    retries=job.extra.get("attempts", 0),
                    queue_wait_s=(job.extra.get("queue_wait_s", 0.0)
                                  + outcome.queue_wait_s),
                    trace_id=job.extra.get("trace_id"),
                ))
                self._finish_trace(job, "ok")
        elif status == "expired":
            # Deadlines are final: a retry cannot un-expire a job.
            self._expire(jobs, payload)
        else:
            self._retry_or_fail(jobs, payload)
        self._account(snapshot=snapshot)
        # Resolved, then persisted: a failed or interrupted write loses
        # a cache entry, never an answer.  stop() joins this thread.
        if stored is not None:
            try:
                self.cache.put(stored.signature, stored)
            except OSError as exc:
                warnings.warn(f"result cache write failed: {exc!r}", RuntimeWarning)

    def _retry_or_fail(self, jobs: list[Job], exc: Exception) -> None:
        """Failure policy for the members of one failed solve: within
        the retry budget, re-queue every job (a fresh seq, attempts + 1
        -- a chaos job finds its checkpoint directory warm and resumes
        instead of starting over); past it, the first member fails
        with the real error and its duplicates are *skipped*
        (:class:`~repro.serve.request.JobSkipped`) rather than
        re-running a solve that just failed repeatedly."""
        if self._failure_cause(exc) == "node-lost":
            # The signal the node-lost alert rule watches: bumped on
            # every lost attempt, terminal or retried.
            with self._mlock:
                self._c_node_lost.inc()
        if not jobs:
            return
        leader = jobs[0]
        budget = leader.request.retries
        if budget is None:
            budget = self.config.retry_budget
        attempts = leader.extra.get("attempts", 0)
        now = time.monotonic()
        if budget > 0 and attempts < budget and not self._stop.is_set():
            self._expire([job for job in jobs if job.expired(now)],
                         "deadline passed before its retry")
            retried = 0
            for job in jobs:
                if job.expired(now):
                    continue
                retry = Job(
                    request=job.request,
                    future=job.future,
                    signature=job.signature,
                    seq=self.queue.next_seq(),
                    enqueued=job.enqueued,
                    deadline=job.deadline,
                    extra={
                        **job.extra,
                        "attempts": attempts + 1,
                        "requeued_at": now,
                    },
                )
                try:
                    self.queue.submit(retry)
                except ServeError as submit_exc:
                    job.fail(submit_exc)
                    self._finish_trace(job, "error")
                    continue
                if self.lifecycle is not None:
                    trace_id = job.extra.get("trace_id")
                    if trace_id is not None:
                        self.lifecycle.span(
                            trace_id, "retry", now, now,
                            attempt=attempts + 1,
                            error=repr(exc)[:200],
                        )
                retried += 1
            self._account(retried=retried)
            return
        err = (exc if isinstance(exc, ServeError)
               else WorkerDied(f"solve failed: {exc}"))
        # Finish the traces (their terminal spans land in the flight
        # recorder) and write the dump *before* failing any future: a
        # client woken by its failure must already see the dump in
        # stats()["postmortems"].
        trace_ids = []
        terminal = []
        for pos, job in enumerate(jobs):
            tid = job.extra.get("trace_id")
            if tid is not None:
                trace_ids.append(tid)
            if pos == 0 or budget == 0:
                terminal.append((job, err, "error"))
            else:
                terminal.append((job, JobSkipped(
                    f"job {job.seq} skipped: the leading attempt of this "
                    f"solve failed after {attempts + 1} attempt(s)"
                ), "skipped"))
            self._finish_trace(job, terminal[-1][2])
        self._dump_failure(err, trace_ids, attempts, budget)
        for job, job_err, _ in terminal:
            job.fail(job_err)

    def _dump_reason(self, exc: Exception, attempts: int,
                     budget: int) -> str:
        if budget > 0 and attempts >= budget:
            return "retry-budget-exhausted"
        return self._failure_cause(exc)

    @staticmethod
    def _failure_cause(exc: Exception) -> str:
        from ..ir.core import PassError
        from ..runtime.report import NodeLostError

        for c in (exc, exc.__cause__):
            if isinstance(c, NodeLostError):
                return "node-lost"
            if isinstance(c, PassError):
                return "pass-error"
            if isinstance(c, WorkerDied):
                return "worker-died"
        return "failure"

    def _dump_dir(self) -> Path:
        dump_dir = self.config.dump_dir
        if dump_dir is None:
            dump_dir = Path(tempfile.gettempdir()) / "repro-postmortem"
        return Path(dump_dir)

    def _note_dump(self, path: Path) -> None:
        """Track one flight-recorder dump; retention pruning may have
        deleted older ones, so drop entries that no longer exist."""
        with self._lock:
            self.dumps.append(path)
            self.dumps = [p for p in self.dumps if Path(p).exists()]

    def _on_sample(self, t: float) -> None:
        if self.alerts is not None:
            self.alerts.evaluate(t)

    def _dump_failure(self, exc: Exception, trace_ids, attempts: int,
                      budget: int) -> None:
        """Terminal failure: flush the flight recorder to disk so the
        post-mortem survives the service (and the process)."""
        if self.recorder is None:
            return
        try:
            path = self.recorder.dump(
                self._dump_dir(),
                reason=self._dump_reason(exc, attempts, budget),
                error=repr(exc),
                trace_ids=tuple(trace_ids),
                extra={"attempts": attempts, "retry_budget": budget},
            )
        except OSError:  # pragma: no cover - dump dir unwritable
            return
        self._note_dump(path)

    def _count_done(self, future: Future) -> None:
        """Count one admitted request, once, by its outcome: called by
        whoever resolves its future -- a runner, the reaper, the queue's
        purge or close, a cache hit."""
        if future.cancelled():
            status = "cancelled"
        elif future.exception() is None:
            status = "cached" if future.result().cached else "ok"
        else:
            status = _STATUS_OF.get(type(future.exception()), "error")
        with self._mlock:
            self._finished += 1
            self._c_completed.inc(status=status)

    def _account(self, snapshot=None, expired: int = 0, retried: int = 0) -> None:
        """Fold a solve's metrics snapshot, and the jobs that expired
        past the queue or were re-queued, into the service counters (a
        retried job is still pending: it is no completion yet)."""
        with self._mlock:
            if snapshot is not None:
                self.metrics.merge(snapshot)
            if expired:
                self._c_expired.inc(expired, where="running")
            if retried:
                self._c_retried.inc(retried)

    def _expire(self, jobs: list[Job], why) -> None:
        """Fail dispatched ``jobs`` at their deadlines: ``why`` is the
        worker's :class:`DeadlineExpired`, or how the deadline caught
        each job."""
        for job in jobs:
            job.fail(why if isinstance(why, DeadlineExpired)
                     else DeadlineExpired(f"job {job.seq} {why}"))
            self._finish_trace(job, "expired")
        if jobs:
            self._account(expired=len(jobs))

    def _fail(self, jobs: list[Job], exc: Exception) -> None:
        """A solve that never returned (dead worker, failed spawn):
        expired members report their deadline, the rest go through the
        retry-or-fail policy."""
        now = time.monotonic()
        self._expire([job for job in jobs if job.expired(now)],
                     "deadline passed; its worker was reclaimed")
        self._retry_or_fail([job for job in jobs if not job.expired(now)], exc)

    # -- reaper ----------------------------------------------------------

    def _reap(self) -> None:
        while not self._stop.wait(REAP_INTERVAL_S):
            now = time.monotonic()
            self.queue.purge_expired(now)
            expired, overdue = [], []
            with self._lock:
                for seq, solve in self._running.items():
                    if solve.deadline is not None and now >= solve.deadline:
                        # No member waits past it: the solve itself
                        # ends, and its runner resolves who is left.
                        overdue.append((seq, solve.worker))
                        continue
                    # Another member still waits on the solve: these
                    # fail at their own deadlines and it runs on.
                    expired += [job for job in solve.waiting if job.expired(now)]
                    solve.waiting = [job for job in solve.waiting
                                     if not job.expired(now)]
            self._expire(expired, "deadline passed while its solve ran on")
            for seq, worker in overdue:
                # Threads kind cancels exactly this solve; processes
                # kind kills the child (its runner fails the solve and
                # forks a replacement for the next one).
                worker.cancel(seq)

    # -- introspection ---------------------------------------------------

    def progress(self) -> dict:
        """Live sample for :class:`repro.obs.monitor.RunMonitor`:
        jobs finished over jobs admitted, plus serving levels."""
        with self._mlock:
            done, total = self._finished, self._submitted
            workers = self._live_locked()
        return {
            "done": done,
            "total": total,
            "elapsed_s": (
                time.monotonic() - self._t_start if self._started else 0.0
            ),
            "workers": workers,
            "queue_depth": self.queue.depth,
        }

    def sample_now(self) -> float | None:
        """Force one telemetry sample (and alert pass) immediately --
        ``repro top``'s final frame and deterministic tests use this
        instead of waiting out the sampling interval."""
        if self._sampler is None:
            raise ServeError(
                "sampling is disabled (ServiceConfig.sampling_interval_s)"
            )
        return self._sampler.sample()

    def stats(self) -> dict:
        with self._mlock:
            done, total = self._finished, self._submitted
            pool = {"kind": self.config.pool, "spawned": self._spawned,
                    "workers": self._live_locked()}
        out = {
            "submitted": total,
            "finished": done,
            "queue": self.queue.stats(),
            "pool": pool,
            "cache_entries": len(self.cache) if self.cache is not None else 0,
        }
        if self.lifecycle is not None:
            with self._lock:
                dumps = [str(p) for p in self.dumps]
            out["traces"] = len(self.lifecycle)
            out["recorder_events"] = (
                len(self.recorder) if self.recorder is not None else 0
            )
            out["postmortems"] = dumps
        if self.series is not None:
            out["samples"] = self.series.samples
        if self.alerts is not None:
            out["alerts"] = {
                "active": self.alerts.active(),
                "transitions": len(self.alerts.transitions),
            }
        return out

    def write_timeline(
        self,
        chrome: object = None,
        otel: object = None,
        service_name: str = "repro-serve",
    ) -> dict:
        """Export every retained lifecycle span -- and, under
        ``trace_requests``, the task kernels of each traced solve
        parented beneath its ``execute`` span -- as Chrome
        ``chrome://tracing`` JSON and/or an OTel OTLP document.
        Returns ``{format: path}`` for whatever was written."""
        if self.lifecycle is None:
            raise ServeError(
                "lifecycle tracing is disabled (ServiceConfig.lifecycle)"
            )
        from ..obs.lifecycle import write_timeline as _write
        with self._lock:
            exec_traces = dict(self.timelines)
        return _write(
            self.lifecycle.all_spans(),
            exec_traces,
            chrome_path=chrome,
            otel_path=otel,
            service_name=service_name,
        )


__all__ = ["ServiceConfig", "SolverService"]
