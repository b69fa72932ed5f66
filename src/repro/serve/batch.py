"""Batching window: fuse compatible small solves into one submission.

Small solves are dominated by dispatch overhead (queue hand-off, pool
wake-up, a pipe round-trip), so the dispatcher does not take jobs one
by one: after dequeuing a *leader* it holds a short window open and
pulls every queued job of the same tenant whose
:meth:`~repro.serve.request.SolveRequest.batch_key` matches -- same
machine model, implementation, grid extents, tile shape and execution
config -- up to ``max_batch``.  The whole batch rides one pool
submission and executes back-to-back on one worker.  What that buys
is the dedup below and, on ``pool="processes"``, one pipe round-trip
for the batch instead of one per job; every job still builds its own
graph and one-shot executor.

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


@dataclass
class Batch:
    """Jobs fused into one pool submission (all one tenant, all one
    batch key)."""

    jobs: list[Job]
    key: tuple

    @property
    def tenant(self) -> str:
        return self.jobs[0].tenant

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
    """Turns the job queue's single-job dequeue into batch dequeue.

    ``window_s`` bounds the extra latency batching may add to the
    leader: the collector polls for compatible arrivals until the
    window closes or the batch fills.  ``window_s=0`` degenerates to
    purely opportunistic batching (whatever is already queued), and
    ``max_batch=1`` disables fusion entirely.
    """

    def __init__(
        self,
        queue: JobQueue,
        window_s: float = 0.005,
        max_batch: int = 8,
        metrics=None,
        lifecycle=None,
    ) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be positive, got {max_batch}")
        if window_s < 0:
            raise ValueError(f"window_s cannot be negative, got {window_s}")
        self.queue = queue
        self.window_s = window_s
        self.max_batch = max_batch
        #: Optional :class:`~repro.obs.lifecycle.LifecycleTracer` the
        #: fusion window reports ``batch_fuse`` spans to.
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
            self._h_size = metrics.histogram(
                "serve_batch_size", "jobs fused per submission", "jobs",
                buckets=(1, 2, 4, 8, 16, 32),
            )

    def take(self, timeout: float | None = None) -> Batch | None:
        """The next batch: a leader from the fair-share queue plus
        every compatible same-tenant job the window catches."""
        leader = self.queue.take(timeout)
        if leader is None:
            return None
        t_window = time.monotonic()
        jobs = [leader]
        key = leader.request.batch_key()
        if self.max_batch > 1:
            window_end = time.monotonic() + self.window_s
            while len(jobs) < self.max_batch:
                jobs.extend(self.queue.take_more(
                    leader.tenant,
                    lambda j: j.request.batch_key() == key,
                    self.max_batch - len(jobs),
                ))
                if len(jobs) >= self.max_batch:
                    break
                remaining = window_end - time.monotonic()
                if remaining <= 0:
                    break
                time.sleep(min(remaining, 0.001))
        batch = Batch(jobs=jobs, key=key)
        if self._metrics is not None:
            with self._mlock:
                self._c_batches.inc()
                self._c_jobs.inc(len(jobs))
                self._h_size.observe(len(jobs))
                if batch.duplicates:
                    self._c_dedup.inc(batch.duplicates)
        if self._lifecycle is not None:
            trace_id = leader.extra.get("trace_id")
            if trace_id is not None:
                self._lifecycle.span(
                    trace_id, "batch_fuse", t_window, time.monotonic(),
                    jobs=len(jobs), dedup=batch.duplicates,
                )
        return batch


__all__ = ["Batch", "BatchCollector"]
