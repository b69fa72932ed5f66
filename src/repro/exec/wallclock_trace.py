"""Wall-clock trace capture for the threaded backend.

The recorder collects per-worker span tuples with
``time.perf_counter`` timestamps (each worker appends to its own list,
so recording is contention-free) and converts them into the existing
:class:`repro.runtime.trace.Trace` schema.  Downstream consumers --
:mod:`repro.analysis.occupancy`, :mod:`repro.analysis.gantt`,
:mod:`repro.obs.export` -- therefore work unchanged on real runs: a
measured trace is just a trace whose seconds happen to be wall-clock
seconds.

The lane tuple is also the *only* per-task record a worker writes:
which tasks completed and how long each worker was busy are folds of
the lanes, taken once at report time.

Convention: the shared-memory host is trace node ``0`` and every
worker thread is a worker lane on it; the task's *simulated* node
placement stays visible through the span label (the task key).
"""

from __future__ import annotations

import time

from ..obs.export import build_trace
from ..runtime.trace import Trace

#: Trace node id under which all worker threads of one host appear.
HOST_NODE = 0


class WallClockRecorder:
    """Contention-free per-worker span collection.

    One instance per run; :meth:`start` pins the time origin so spans
    are reported relative to the run start (Perfetto and the Gantt
    renderer both prefer small positive timestamps).
    """

    def __init__(self, jobs: int) -> None:
        self.jobs = jobs
        self._t0 = 0.0
        #: per-worker lists of (kind, start, end, label, task_id); no
        #: locking needed because worker ``w`` is the only writer of
        #: lane ``w``.
        self._lanes: list[list[tuple[str, float, float, object, object]]] = [
            [] for _ in range(jobs)
        ]

    def start(self) -> float:
        """Mark the run start; returns the raw origin timestamp."""
        self._t0 = time.perf_counter()
        return self._t0

    def now(self) -> float:
        """Raw ``perf_counter`` timestamp (not yet origin-relative)."""
        return time.perf_counter()

    def record(
        self,
        wid: int,
        kind: str,
        start: float,
        end: float,
        label: object = None,
        task_id: object = None,
    ) -> None:
        """Record one span with *raw* timestamps from :meth:`now`."""
        self._lanes[wid].append((kind, start, end, label, task_id))

    def to_trace(self, node: int = HOST_NODE) -> Trace:
        """Materialise a :class:`Trace` with origin-relative seconds
        via the shared :func:`repro.obs.export.build_trace` normaliser
        (spans sorted by start time across all workers, the order the
        simulator's trace naturally has)."""
        return build_trace(
            (node, wid, kind, start - self._t0, end - self._t0, label, task_id)
            for wid, lane in enumerate(self._lanes)
            for kind, start, end, label, task_id in lane
        )

    def completed(self) -> list:
        """Task id of every recorded span (a worker records a task
        exactly once, after it published)."""
        return [tid for lane in self._lanes for _k, _s, _e, _l, tid in lane]

    def busy_per_worker(self) -> dict[int, float]:
        """Total busy seconds per worker lane."""
        return {
            wid: sum(end - start for _kind, start, end, _label, _tid in lane)
            for wid, lane in enumerate(self._lanes)
        }


__all__ = ["HOST_NODE", "WallClockRecorder"]
