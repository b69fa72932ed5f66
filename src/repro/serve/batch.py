"""Batching: fuse compatible queued solves into one submission.

A runner does not take jobs one by one: after dequeuing a *leader* it
also takes every job **already queued** for the same tenant whose
:meth:`~repro.serve.request.SolveRequest.batch_key` matches -- same
machine model, implementation, grid extents, tile shape and execution
config -- up to :data:`MAX_BATCH`.  It never waits for more to arrive:
a backlog, the only time fusing pays, is by definition already in the
queue, while a wait is paid by every lone job (``docs/serving.md``
prices the batch-take hop).  The whole batch executes back-to-back on
the runner's worker.  What that buys is the dedup below and, on
``pool="processes"``, one pipe round-trip for the batch instead of
one per job; every job still builds its own graph and one-shot
executor.

Within a batch, jobs with *equal signatures* are deduplicated: the
group's leader is solved once and every duplicate's future resolves
to the same outcome (the signature guarantees bit-identical answers,
so this is free throughput, not an approximation).

Batching never crosses tenants: fair share and per-tenant caps are
the queue's story, and a batch counts each of its jobs against its
tenant's in-flight cap.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

from .queue import Job, JobQueue

#: Most jobs one batch carries: bounds how long one tenant's backlog
#: holds a worker before fair share gets another look at the queue.
MAX_BATCH = 8


@dataclass
class Batch:
    """Jobs fused into one worker submission (all one tenant, all one
    batch key)."""

    jobs: list[Job]

    def groups(self) -> "OrderedDict[str, list[Job]]":
        """Jobs grouped by solve signature, leader-first submission
        order: each group is solved once."""
        groups: OrderedDict[str, list[Job]] = OrderedDict()
        for job in self.jobs:
            groups.setdefault(job.signature, []).append(job)
        return groups

    @property
    def duplicates(self) -> int:
        return len(self.jobs) - len(self.groups())


class BatchCollector:
    """Turns the job queue's single-job dequeue into batch dequeue."""

    def __init__(self, queue: JobQueue, metrics=None, lifecycle=None) -> None:
        self.queue = queue
        #: Optional :class:`~repro.obs.lifecycle.LifecycleTracer` the
        #: collector reports ``batch_fuse`` spans to.
        self._lifecycle = lifecycle
        # Several runner threads collect concurrently; the lock keeps
        # the metric cells single-writer.
        self._mlock = threading.Lock()
        self._metrics = metrics
        if metrics is not None:
            self._c_batches = metrics.counter(
                "serve_batches_total", "pool submissions dispatched", "batches"
            )
            self._c_jobs = metrics.counter(
                "serve_batched_jobs_total", "jobs dispatched inside batches",
                "jobs",
            )
            self._c_dedup = metrics.counter(
                "serve_dedup_total",
                "duplicate jobs served from their batch leader", "jobs",
            )

    def take(self, timeout: float | None = None) -> Batch | None:
        """The next batch: a leader from the fair-share queue (waited
        for up to ``timeout``) plus every compatible same-tenant job
        queued behind it right now."""
        leader = self.queue.take(timeout)
        if leader is None:
            return None
        t_fuse = time.monotonic()
        key = leader.request.batch_key()
        jobs = [leader, *self.queue.take_more(
            leader.tenant, lambda j: j.request.batch_key() == key,
            MAX_BATCH - 1,
        )]
        batch = Batch(jobs)
        if self._metrics is not None:
            with self._mlock:
                self._c_batches.inc()
                self._c_jobs.inc(len(jobs))
                if batch.duplicates:
                    self._c_dedup.inc(batch.duplicates)
        if self._lifecycle is not None:
            trace_id = leader.extra.get("trace_id")
            if trace_id is not None:
                self._lifecycle.span(
                    trace_id, "batch_fuse", t_fuse, time.monotonic(),
                    jobs=len(jobs), dedup=batch.duplicates,
                )
        return batch


__all__ = ["Batch", "BatchCollector"]
