"""Job queue with admission control and multi-tenant fair share.

The queue is the service's only waiting room, and its three rules are
the serving policy:

* **Admission control.**  Depth is bounded; a submit against a full
  queue raises :class:`~repro.serve.request.QueueFullError`
  *synchronously* -- back-pressure reaches the client immediately
  instead of accumulating as latency (the classic bounded-queue
  lesson from SEDA-style services).
* **Fair share across tenants.**  Each tenant has its own priority
  heap and the dispatcher round-robins over tenants that are both
  non-empty and under their in-flight cap, so a tenant flooding the
  queue delays itself, not its neighbours; within a tenant, higher
  ``priority`` dequeues first, FIFO among equals.
* **Per-tenant concurrency caps.**  A tenant at its cap keeps its
  jobs queued (they are admitted, not rejected); capacity freed by
  :meth:`JobQueue.task_done` wakes the dispatcher.

Deadlines are enforced at the queue boundary too: a job whose
deadline passes while it waits is completed with
:class:`~repro.serve.request.DeadlineExpired` and never dispatched
(:meth:`JobQueue.purge_expired`, also called opportunistically on
every dequeue).

Every metric update happens inside the queue lock, preserving the
registry's single-writer discipline (see :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import heapq
import itertools
import threading
import time
from collections import deque
from dataclasses import dataclass, field

from concurrent.futures import Future, InvalidStateError

from .request import (
    DeadlineExpired,
    QueueFullError,
    ServiceClosed,
    SolveOutcome,
    SolveRequest,
)


@dataclass
class Job:
    """One admitted request: the request plus its future and timing."""

    request: SolveRequest
    future: Future
    signature: str
    seq: int
    enqueued: float
    #: absolute ``time.monotonic()`` deadline, or None
    deadline: float | None = None
    extra: dict = field(default_factory=dict)

    @property
    def tenant(self) -> str:
        return self.request.tenant

    @property
    def priority(self) -> int:
        return self.request.priority

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now >= self.deadline

    # Completion is idempotent: a future the client cancelled (or a
    # job failed twice on independent paths) must not blow up the
    # dispatcher.

    def complete(self, outcome: SolveOutcome) -> None:
        try:
            self.future.set_result(outcome)
        except InvalidStateError:
            pass

    def fail(self, exc: BaseException) -> None:
        try:
            self.future.set_exception(exc)
        except InvalidStateError:
            pass


class JobQueue:
    """Bounded, tenant-fair, priority-ordered job queue."""

    def __init__(
        self,
        max_depth: int = 64,
        tenant_limit: int | None = 2,
        tenant_limits: dict[str, int] | None = None,
        metrics=None,
        lifecycle=None,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be positive, got {max_depth}")
        # A cap of 0 would admit a tenant's jobs and never dispatch them.
        caps = {"tenant_limit": tenant_limit, **{
            f"tenant_limits[{tenant!r}]": cap
            for tenant, cap in (tenant_limits or {}).items()
        }}
        for name, cap in caps.items():
            if cap is not None and cap < 1:
                raise ValueError(f"{name} must be None or positive, got {cap}")
        self.max_depth = max_depth
        #: Optional :class:`~repro.obs.lifecycle.LifecycleTracer`; jobs
        #: whose ``extra`` carries a ``trace_id`` get ``queued`` spans
        #: (and terminal finishes on purge/close) recorded against it.
        self._lifecycle = lifecycle
        self._cap_default = tenant_limit
        self._caps = dict(tenant_limits or {})
        self._lock = threading.Lock()
        self._ready = threading.Condition(self._lock)
        #: tenant -> heap of (-priority, seq, job)
        self._heaps: dict[str, list] = {}
        #: round-robin order over tenants with queued work
        self._rotation: deque[str] = deque()
        self._inflight: dict[str, int] = {}
        self._seq = itertools.count()
        self._depth = 0
        self._closed = False

        self._metrics = metrics
        if metrics is not None:
            self._g_depth = metrics.gauge(
                "serve_queue_depth", "jobs waiting for dispatch", "jobs"
            )
            self._g_inflight = metrics.gauge(
                "serve_tenant_inflight", "dispatched jobs per tenant", "jobs"
            )
            self._c_rejects = metrics.counter(
                "serve_admission_rejects_total",
                "submissions rejected at admission, by reason",
            )
            self._c_expired = metrics.counter(
                "serve_deadline_expired_total",
                "jobs cancelled by their deadline, by where it caught them",
            )

    # -- configuration ---------------------------------------------------

    def cap(self, tenant: str) -> int | None:
        """In-flight cap of ``tenant`` (None means unbounded)."""
        return self._caps.get(tenant, self._cap_default)

    def next_seq(self) -> int:
        return next(self._seq)

    # -- lifecycle spans -------------------------------------------------

    def _record_queued(self, job: Job, now: float, status: str = "ok") -> None:
        """One ``queued`` span covering this stay in the queue (a
        retry re-queue stamps ``requeued_at`` so each stay gets its
        own span); accumulates the job's total queue wait in
        ``extra`` for the outcome's ``queue_wait_s``."""
        if self._lifecycle is None:
            return
        trace_id = job.extra.get("trace_id")
        if trace_id is None:
            return
        start = job.extra.get("requeued_at", job.enqueued)
        job.extra["queue_wait_s"] = (
            job.extra.get("queue_wait_s", 0.0) + max(0.0, now - start)
        )
        self._lifecycle.span(
            trace_id, "queued", start, now, status=status,
            seq=job.seq, attempt=job.extra.get("attempts", 0),
        )

    # -- submission ------------------------------------------------------

    def submit(self, job: Job) -> None:
        """Admit ``job`` or raise (:class:`QueueFullError` on depth,
        :class:`ServiceClosed` after :meth:`close`)."""
        with self._ready:
            if self._closed:
                raise ServiceClosed("the service is not accepting work")
            if self._depth >= self.max_depth:
                if self._metrics is not None:
                    self._c_rejects.inc(reason="queue-full")
                raise QueueFullError(
                    f"queue full ({self._depth}/{self.max_depth} jobs); "
                    "retry later or raise queue_depth"
                )
            heap = self._heaps.setdefault(job.tenant, [])
            if not heap:
                self._rotation.append(job.tenant)
            heapq.heappush(heap, (-job.priority, job.seq, job))
            self._depth += 1
            if self._metrics is not None:
                self._g_depth.set(self._depth)
            self._ready.notify()

    # -- dispatch --------------------------------------------------------

    def _pick_locked(self, now: float) -> Job | None:
        """Next dispatchable job under fair share, or None.  Visits
        each rotation slot at most once; tenants drained empty leave
        the rotation, tenants at their cap rotate to the back."""
        for _ in range(len(self._rotation)):
            tenant = self._rotation.popleft()
            heap = self._heaps.get(tenant)
            if not heap:
                continue  # drained (or purged) -- drop from rotation
            cap = self.cap(tenant)
            if cap is not None and self._inflight.get(tenant, 0) >= cap:
                self._rotation.append(tenant)
                continue
            _, _, job = heapq.heappop(heap)
            if heap:
                self._rotation.append(tenant)
            self._depth -= 1
            self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
            if self._metrics is not None:
                self._g_depth.set(self._depth)
                self._g_inflight.set(
                    self._inflight[tenant], tenant=tenant
                )
            self._record_queued(job, now)
            return job
        return None

    def take(self, timeout: float | None = None) -> Job | None:
        """Block for the next dispatchable job (None on timeout or
        when the queue is closed)."""
        limit = None if timeout is None else time.monotonic() + timeout
        with self._ready:
            while True:
                now = time.monotonic()
                self._purge_expired_locked(now)
                job = self._pick_locked(now)
                if job is not None:
                    return job
                if self._closed:
                    return None
                if limit is not None:
                    remaining = limit - time.monotonic()
                    if remaining <= 0:
                        return None
                    self._ready.wait(remaining)
                else:
                    self._ready.wait()

    def take_duplicates(self, leader: Job) -> list[Job]:
        """Non-blocking companion of :meth:`take`: the jobs still queued
        that are the same solve as ``leader`` (just taken) -- same
        tenant, equal signature and chaos plan, not expired -- in
        priority order while the tenant's in-flight cap has room, each
        counted against it.  The service solves them once, as the
        leader; fair share stays one queue's story."""
        tenant, plan = leader.tenant, leader.request.chaos_plan
        taken: list[Job] = []
        with self._ready:
            heap = self._heaps.get(tenant)
            if not heap:
                return taken
            now = time.monotonic()
            cap = self.cap(tenant)
            keep: list = []
            for entry in sorted(heap):
                job = entry[2]
                room = cap is None or self._inflight.get(tenant, 0) < cap
                if (room and job.signature == leader.signature
                        and job.request.chaos_plan == plan
                        and not job.expired(now)):
                    taken.append(job)
                    self._depth -= 1
                    self._inflight[tenant] = self._inflight.get(tenant, 0) + 1
                    self._record_queued(job, now)
                else:
                    keep.append(entry)
            if taken:
                heapq.heapify(keep)
                self._heaps[tenant] = keep
                if self._metrics is not None:
                    self._g_depth.set(self._depth)
                    self._g_inflight.set(self._inflight[tenant], tenant=tenant)
        return taken

    def task_done(self, tenant: str) -> None:
        """A dispatched job of ``tenant`` finished; frees one slot of
        its cap and wakes the dispatcher."""
        with self._ready:
            self._inflight[tenant] = max(0, self._inflight.get(tenant, 0) - 1)
            if self._metrics is not None:
                self._g_inflight.set(self._inflight[tenant], tenant=tenant)
            self._ready.notify_all()

    # -- deadlines -------------------------------------------------------

    def _purge_expired_locked(self, now: float) -> int:
        purged = 0
        for tenant, heap in self._heaps.items():
            if not heap or not any(e[2].expired(now) for e in heap):
                continue
            keep = []
            for entry in heap:
                job = entry[2]
                if job.expired(now):
                    job.fail(DeadlineExpired(
                        f"job {job.seq} expired after "
                        f"{now - job.enqueued:.3f}s in queue"
                    ))
                    self._depth -= 1
                    purged += 1
                    if self._metrics is not None:
                        self._c_expired.inc(where="queued")
                    self._record_queued(job, now, status="expired")
                    if self._lifecycle is not None:
                        self._lifecycle.finish(
                            job.extra.get("trace_id"), "expired", now=now
                        )
                else:
                    keep.append(entry)
            heapq.heapify(keep)
            self._heaps[tenant] = keep
        if purged and self._metrics is not None:
            self._g_depth.set(self._depth)
        return purged

    def purge_expired(self, now: float | None = None) -> int:
        """Fail every queued job whose deadline has passed; returns
        how many were purged (the service reaper calls this
        periodically; dequeue paths call it opportunistically)."""
        with self._ready:
            return self._purge_expired_locked(
                time.monotonic() if now is None else now
            )

    # -- lifecycle -------------------------------------------------------

    def close(self) -> int:
        """Stop admitting work and fail everything still queued with
        :class:`ServiceClosed`; returns the number of failed jobs."""
        with self._ready:
            self._closed = True
            failed = 0
            now = time.monotonic()
            for heap in self._heaps.values():
                for _, _, job in heap:
                    job.fail(ServiceClosed("service shut down before dispatch"))
                    failed += 1
                    self._record_queued(job, now, status="closed")
                    if self._lifecycle is not None:
                        self._lifecycle.finish(
                            job.extra.get("trace_id"), "closed", now=now
                        )
                heap.clear()
            self._depth = 0
            self._rotation.clear()
            if self._metrics is not None:
                self._g_depth.set(0)
            self._ready.notify_all()
            return failed

    # -- introspection ---------------------------------------------------

    @property
    def depth(self) -> int:
        return self._depth

    def inflight(self, tenant: str | None = None) -> int | dict[str, int]:
        with self._lock:
            if tenant is not None:
                return self._inflight.get(tenant, 0)
            return dict(self._inflight)

    def stats(self) -> dict:
        with self._lock:
            return {
                "depth": self._depth,
                "max_depth": self.max_depth,
                "queued": {
                    t: len(h) for t, h in self._heaps.items() if h
                },
                "inflight": {
                    t: n for t, n in self._inflight.items() if n
                },
                "closed": self._closed,
            }


__all__ = ["Job", "JobQueue"]
