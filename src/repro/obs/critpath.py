"""Causal critical-path analysis of an executed trace.

PaRSEC's profiling answers *what ran when*; this module answers *why
the run took as long as it did*.  It joins a
:class:`~repro.runtime.trace.Trace` with the
:class:`~repro.runtime.graph.TaskGraph` it executed into a causal DAG
over spans:

* **dependency edges** -- producer span to consumer span, from the
  graph's flows;
* **comm edges** -- producer to its ``send`` span ("post"), ``send``
  to the matching ``recv`` ("wire"), ``recv`` to the consumer;
* **worker-adjacency edges** -- consecutive spans on one
  ``(node, worker)`` lane: a worker is a serial resource, so the span
  before me can delay me even without a dataflow edge.

Walking that DAG backwards from the last span to finish yields the
*executed* critical path: the chain of spans and waits that determined
the makespan.  Every second of ``[0, makespan]`` is blamed:

========== ==========================================================
blame      meaning
========== ==========================================================
compute    a kernel body on the path
comm       a ``send``/``recv`` span body on the path
wire       the gap between a send finishing and its recv starting
queue      a ready task waiting for a worker (scheduler/queue time)
comm-queue backlog before a comm span got the wire
startup    the lead-in before the path's first span
========== ==========================================================

The segment list tiles ``[0, makespan]`` *exactly* -- contiguous by
construction -- which is what lets the tests pin ``sum(segments) ==
makespan`` as an invariant on every backend's trace schema.

Beyond the path itself the report carries per-task slack (how long a
task could slip without moving the makespan), MAD-scored straggler
spans, and per-worker load imbalance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

from ..runtime.trace import Span, Trace, median

#: Span kinds that represent communication activity.
COMM_KINDS = Trace.COMM_KINDS

#: Blame categories counted as communication by :attr:`comm_share`.
COMM_BLAMES = ("comm", "wire", "comm-queue")

#: Robust z-score above which a span is called a straggler
#: (the conventional modified-z cutoff).
STRAGGLER_THRESHOLD = 3.5

#: Consistency factor making the MAD estimate sigma for normal data.
_MAD_SCALE = 1.4826

#: Same, for the mean absolute deviation (fallback when MAD is zero).
_MEANAD_SCALE = 1.2533


# ---------------------------------------------------------------------------
# report dataclasses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathSegment:
    """One contiguous interval of the critical path.

    Body segments carry the span's ``kind``; gap segments have
    ``kind == ""`` and are anchored to the span that was *waiting*
    (the one the gap precedes).
    """

    start: float
    end: float
    blame: str
    kind: str = ""
    node: int = -1
    worker: int = -1
    task_id: Any = None

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass(frozen=True)
class Straggler:
    """A span whose duration is a robust outlier within its kind."""

    task_id: Any
    kind: str
    node: int
    worker: int
    duration: float
    median: float
    score: float


@dataclass(frozen=True)
class WorkerLoad:
    """Busy time of one compute lane, with its robust deviation score
    (positive = overloaded relative to its peers)."""

    node: int
    worker: int
    busy: float
    share: float
    score: float


@dataclass
class CritPathReport:
    """Everything the causal analysis derives from one trace."""

    makespan: float
    #: Exactly contiguous tiling of ``[0, makespan]``.
    segments: list[PathSegment] = field(default_factory=list)
    #: Seconds of critical-path time per blame category.
    blame_seconds: dict[str, float] = field(default_factory=dict)
    #: Static :meth:`TaskGraph.critical_path` bound (0 without a graph).
    dependency_bound_s: float = 0.0
    #: Per-task slack seconds (0 = on a tight chain to the makespan).
    slack: dict[Any, float] = field(default_factory=dict)
    stragglers: list[Straggler] = field(default_factory=list)
    workers: list[WorkerLoad] = field(default_factory=list)

    @property
    def critpath_time(self) -> float:
        """Total blamed time; equals :attr:`makespan` by construction."""
        return math.fsum(seg.duration for seg in self.segments)

    @property
    def critpath_ratio(self) -> float:
        """Static dependency bound over makespan -- 1.0 means the run
        is dependency-limited, small values mean the schedule (workers,
        communication, queues) is what stretched the run."""
        return self.dependency_bound_s / self.makespan if self.makespan > 0 else 0.0

    @property
    def comm_share(self) -> float:
        """Fraction of critical-path time blamed on communication
        (span bodies, wire time and comm backlog)."""
        if self.makespan <= 0:
            return 0.0
        return sum(self.blame_seconds.get(b, 0.0) for b in COMM_BLAMES) / self.makespan

    def blame_shares(self) -> dict[str, float]:
        """Blame seconds as fractions of the makespan."""
        if self.makespan <= 0:
            return {}
        return {b: s / self.makespan for b, s in self.blame_seconds.items()}

    def top_segments(self, n: int = 3) -> list[PathSegment]:
        """The ``n`` longest critical-path segments."""
        return sorted(self.segments, key=lambda s: -s.duration)[:n]

    @property
    def imbalance(self) -> float:
        """Max over mean busy time across compute lanes (1.0 = even)."""
        if not self.workers:
            return 0.0
        busy = [w.busy for w in self.workers]
        mean = sum(busy) / len(busy)
        return max(busy) / mean if mean > 0 else 0.0

    def brief(self) -> str:
        """One line for progress output and CI logs."""
        shares = self.blame_shares()
        top = sorted(shares.items(), key=lambda kv: -kv[1])[:3]
        parts = "  ".join(f"{b} {s:.1%}" for b, s in top)
        return (
            f"critpath {self.critpath_time:.4g}s = makespan, "
            f"dependency bound {self.dependency_bound_s:.4g}s "
            f"(ratio {self.critpath_ratio:.2f}), comm share "
            f"{self.comm_share:.1%} [{parts}]"
        )

    def format(self) -> str:
        """Multi-line human-readable report."""
        lines = [
            f"critical path: {self.critpath_time:.6g} s over "
            f"{len(self.segments)} segments (makespan {self.makespan:.6g} s)",
            f"  dependency bound: {self.dependency_bound_s:.6g} s "
            f"(critpath ratio {self.critpath_ratio:.3f})",
            f"  comm share of critical path: {self.comm_share:.1%}",
        ]
        shares = self.blame_shares()
        if shares:
            lines.append("  blame: " + "  ".join(
                f"{b} {shares[b]:.1%}"
                for b in sorted(shares, key=lambda b: -shares[b])
            ))
        top = self.top_segments(3)
        if top:
            lines.append("  top segments:")
            for seg in top:
                what = seg.kind or seg.blame
                lines.append(
                    f"    {seg.duration:.6g} s  {seg.blame:<10} {what:<10} "
                    f"node {seg.node} worker {seg.worker}"
                    + (f"  task {seg.task_id!r}" if seg.task_id is not None else "")
                )
        if self.stragglers:
            lines.append(f"  stragglers ({len(self.stragglers)}):")
            for s in self.stragglers[:5]:
                lines.append(
                    f"    {s.kind} task {s.task_id!r} on node {s.node} "
                    f"worker {s.worker}: {s.duration:.6g} s "
                    f"(median {s.median:.6g} s, score {s.score:.1f})"
                )
        if self.workers:
            lines.append(
                f"  worker imbalance: max/mean busy = {self.imbalance:.3f}"
            )
            flagged = [w for w in self.workers if abs(w.score) > STRAGGLER_THRESHOLD]
            for w in flagged[:5]:
                tag = "overloaded" if w.score > 0 else "underloaded"
                lines.append(
                    f"    node {w.node} worker {w.worker} {tag}: "
                    f"busy {w.busy:.6g} s ({w.share:.1%} of makespan, "
                    f"score {w.score:+.1f})"
                )
        return "\n".join(lines)


# ---------------------------------------------------------------------------
# causal DAG construction
# ---------------------------------------------------------------------------


def _task_identity(span: Span) -> Any:
    """The task a span belongs to: its first-class ``task_id``, else the
    label (pre-``task_id`` traces used the task key as the label)."""
    if span.task_id is not None:
        return span.task_id
    label = span.label
    if isinstance(label, tuple) and len(label) in (2, 3) and span.kind in COMM_KINDS:
        return label[0]
    return label


def _comm_label(span: Span) -> tuple[Any, Any]:
    """(producer, tag) of a comm span; tag ``None`` when unknown
    (blocking-mode sends only carry the producer key), a tuple of flow
    tags for a ``processes`` record: the flows it released, each
    perhaps standing for several messages."""
    label = span.label
    if isinstance(label, tuple) and len(label) in (2, 3):
        return label[0], label[1]
    return _task_identity(span), None


class _CausalDag:
    """Span-level causal DAG: indexes plus predecessor/successor lists.

    Edge types: ``dep`` (dataflow), ``post`` (producer to its send),
    ``wire`` (send to recv), ``adj`` (same-lane adjacency).
    """

    def __init__(self, trace: Trace, graph: Any = None) -> None:
        self.spans: list[Span] = list(trace.spans)
        self.preds: list[list[tuple[int, str]]] = [[] for _ in self.spans]
        self.succs: list[list[tuple[int, str]]] = [[] for _ in self.spans]
        self._index(graph)

    # -- indexing --------------------------------------------------------

    def _index(self, graph: Any) -> None:
        task_span: dict[Any, int] = {}
        send_exact: dict[tuple[Any, Any, int], int] = {}
        send_loose: dict[tuple[Any, Any], list[int]] = {}
        recv_flow: dict[tuple[Any, Any, int], int] = {}
        recv_spans: list[int] = []
        send_spans: list[int] = []
        lanes: dict[tuple[int, int], list[int]] = {}
        for i, span in enumerate(self.spans):
            lanes.setdefault((span.node, span.worker), []).append(i)
            if span.kind == "send":
                send_spans.append(i)
                producer, tag = _comm_label(span)
                label = span.label
                if isinstance(label, tuple) and len(label) == 3:
                    # (producer, tag, dst) -- keyed by destination so a
                    # recv can find *its* send even when one producer
                    # fans out to several peers.
                    send_exact[(producer, tag, label[2])] = i
                send_loose.setdefault((producer, tag), []).append(i)
            elif span.kind == "recv":
                recv_spans.append(i)
                producer, tag = _comm_label(span)
                for one in tag if isinstance(tag, tuple) else (tag,):
                    recv_flow[(producer, one, span.node)] = i  # the flows it released
            elif span.worker >= 0:
                task_span[_task_identity(span)] = i

        def add_edge(u: int, v: int, etype: str) -> None:
            self.preds[v].append((u, etype))
            self.succs[u].append((v, etype))

        # Same-lane adjacency: a worker (or comm thread) is serial.
        for members in lanes.values():
            members.sort(key=lambda i: (self.spans[i].start, self.spans[i].end))
            for u, v in zip(members, members[1:]):
                add_edge(u, v, "adj")

        # send spans chain back to their producer's compute span.
        for i in send_spans:
            producer, _tag = _comm_label(self.spans[i])
            u = task_span.get(producer)
            if u is not None and u != i:
                add_edge(u, i, "post")

        # recv spans chain back to the matching send (or, failing
        # that, straight to the producer -- the threads backend has no
        # comm spans, old traces have no dst in the label).
        for i in recv_spans:
            span = self.spans[i]
            producer, tag = _comm_label(span)
            u = send_exact.get((producer, tag, span.node))
            if u is None:
                cands = send_loose.get((producer, tag)) or []
                cands = [c for c in cands if c != i]
                u = max(cands, key=lambda c: self.spans[c].end, default=None)
            if u is None:
                u = task_span.get(producer)
            if u is not None and u != i:
                add_edge(u, i, "wire")

        # Dataflow edges from the graph: producer (or the recv that
        # released the flow on the consumer's node, when it crossed
        # nodes) to consumer.
        if graph is not None:
            for task in graph:
                v = task_span.get(task.key)
                if v is None:
                    continue
                consumer_node = self.spans[v].node
                for flow in task.inputs:
                    u = recv_flow.get((flow.producer, flow.tag, consumer_node))
                    if u is None:
                        u = task_span.get(flow.producer)
                    if u is not None and u != v:
                        add_edge(u, v, "dep")

    # -- backward walk ---------------------------------------------------

    def walk_back(self) -> list[tuple[int, str]]:
        """The executed critical path as ``(span_index, gap_blame)``
        entries ordered latest-first; ``gap_blame`` classifies the wait
        between the entry's chosen predecessor and the entry itself
        (``startup`` for the path head)."""
        if not self.spans:
            return []
        v = max(range(len(self.spans)),
                key=lambda i: (self.spans[i].end, self.spans[i].start))
        entries: list[tuple[int, str]] = []
        visited = {v}
        while True:
            best = best_type = None
            for u, etype in self.preds[v]:
                if u in visited:
                    continue
                key = (self.spans[u].end, 0 if etype == "adj" else 1,
                       self.spans[u].start)
                if best is None or key > best_key:
                    best, best_type, best_key = u, etype, key
            if best is None:
                entries.append((v, "startup"))
                return entries
            entries.append((v, self._gap_blame(best_type, self.spans[v])))
            v = best
            visited.add(v)

    @staticmethod
    def _gap_blame(etype: str, waiting: Span) -> str:
        if etype == "wire":
            return "wire"
        if waiting.kind in COMM_KINDS:
            return "comm-queue"
        return "queue"

    # -- slack -----------------------------------------------------------

    def slacks(self, makespan: float) -> list[float]:
        """Per-span slack via a backward pass in topological order.
        Clamped at zero (wall-clock traces can carry small cross-process
        skew that would otherwise go negative)."""
        n = len(self.spans)
        indeg = [len(p) for p in self.preds]
        stack = [i for i in range(n) if indeg[i] == 0]
        topo: list[int] = []
        while stack:
            u = stack.pop()
            topo.append(u)
            for v, _etype in self.succs[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        slack = [0.0] * n
        done = [False] * n
        for v in reversed(topo):
            if self.succs[v]:
                slack[v] = max(0.0, min(
                    self.spans[s].start - self.spans[v].end + slack[s]
                    for s, _etype in self.succs[v]
                ))
            else:
                slack[v] = max(0.0, makespan - self.spans[v].end)
            done[v] = True
        for v in range(n):  # cycle fallback; unreachable on valid traces
            if not done[v]:
                slack[v] = max(0.0, makespan - self.spans[v].end)
        return slack


# ---------------------------------------------------------------------------
# outlier detection
# ---------------------------------------------------------------------------


def _robust_scores(values: list[float]) -> tuple[list[float], float] | None:
    """Modified z-scores of ``values`` (MAD-scaled, mean-absolute-
    deviation fallback) and their median; ``None`` when the spread is
    exactly zero.  Shared by straggler detection and worker loads."""
    med = median(values)
    abs_dev = [abs(v - med) for v in values]
    scale = _MAD_SCALE * median(abs_dev)
    if scale <= 0.0:
        scale = _MEANAD_SCALE * (sum(abs_dev) / len(abs_dev))
    if scale <= 0.0:
        return None
    return [(v - med) / scale for v in values], med


def find_stragglers(
    trace: Trace, threshold: float = STRAGGLER_THRESHOLD
) -> list[Straggler]:
    """Compute spans whose duration is a robust outlier within their
    kind, sorted by score descending."""
    by_kind: dict[str, list[Span]] = {}
    for span in trace.compute_spans():
        if span.kind not in COMM_KINDS:
            by_kind.setdefault(span.kind, []).append(span)
    out: list[Straggler] = []
    for kind, spans in by_kind.items():
        scored = _robust_scores([s.duration for s in spans])
        if scored is None:
            continue
        scores, med = scored
        for span, score in zip(spans, scores):
            if score > threshold:
                out.append(Straggler(
                    task_id=_task_identity(span), kind=kind, node=span.node,
                    worker=span.worker, duration=span.duration, median=med,
                    score=score,
                ))
    out.sort(key=lambda s: -s.score)
    return out


def worker_loads(trace: Trace) -> list[WorkerLoad]:
    """Busy seconds per compute lane with robust deviation scores,
    sorted busiest-first."""
    busy: dict[tuple[int, int], float] = {}
    for span in trace.compute_spans():
        key = (span.node, span.worker)
        busy[key] = busy.get(key, 0.0) + span.duration
    if not busy:
        return []
    makespan = trace.makespan()
    keys = sorted(busy)
    values = [busy[k] for k in keys]
    scored = _robust_scores(values)
    scores = scored[0] if scored is not None else [0.0] * len(keys)
    loads = [
        WorkerLoad(node=node, worker=worker, busy=b,
                   share=b / makespan if makespan > 0 else 0.0, score=score)
        for (node, worker), b, score in zip(keys, values, scores)
    ]
    loads.sort(key=lambda w: -w.busy)
    return loads


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------


def critical_path(trace: Trace, graph: Any = None) -> CritPathReport:
    """Extract the executed critical path of ``trace``.

    ``graph`` (the :class:`~repro.runtime.graph.TaskGraph` the trace
    executed) adds dataflow edges and the static dependency bound; the
    analysis degrades gracefully without it (adjacency and comm edges
    only, bound 0).
    """
    makespan = trace.makespan()
    report = CritPathReport(makespan=makespan)
    if graph is not None and getattr(graph, "finalized", False):
        report.dependency_bound_s = graph.critical_path()
    if not trace.spans:
        return report

    dag = _CausalDag(trace, graph)
    entries = dag.walk_back()

    # Tile [0, makespan] exactly: one running boundary, clamped into
    # the horizon, so segments are contiguous *by construction* and
    # their durations telescope to the makespan.
    segments: list[PathSegment] = []
    boundary = 0.0
    for idx, gap_blame in reversed(entries):
        span = dag.spans[idx]
        task = _task_identity(span)
        gap_end = min(max(span.start, boundary), makespan)
        if gap_end > boundary:
            segments.append(PathSegment(
                start=boundary, end=gap_end, blame=gap_blame,
                node=span.node, worker=span.worker, task_id=task,
            ))
            boundary = gap_end
        body_end = min(max(span.end, boundary), makespan)
        if body_end > boundary:
            blame = "comm" if span.kind in COMM_KINDS else "compute"
            segments.append(PathSegment(
                start=boundary, end=body_end, blame=blame, kind=span.kind,
                node=span.node, worker=span.worker, task_id=task,
            ))
            boundary = body_end
    if boundary < makespan:  # defensive: the walk starts at the last span
        segments.append(PathSegment(start=boundary, end=makespan, blame="queue"))
    report.segments = segments

    blame_seconds: dict[str, float] = {}
    for seg in segments:
        blame_seconds[seg.blame] = blame_seconds.get(seg.blame, 0.0) + seg.duration
    report.blame_seconds = blame_seconds

    slacks = dag.slacks(makespan)
    report.slack = {
        _task_identity(span): slacks[i]
        for i, span in enumerate(dag.spans)
        if span.worker >= 0 and span.kind not in COMM_KINDS
    }
    report.stragglers = find_stragglers(trace)
    report.workers = worker_loads(trace)
    return report


def publish_critpath_metrics(registry: Any, report: CritPathReport) -> None:
    """Mirror a report into the metrics registry so the regression gate
    (:mod:`repro.obs.regress`) can track causal health across commits."""
    registry.gauge(
        "critpath_seconds", "executed critical-path time", "seconds"
    ).set(report.critpath_time)
    registry.gauge(
        "critpath_ratio", "static dependency bound over makespan", "ratio"
    ).set(report.critpath_ratio)
    registry.gauge(
        "critpath_comm_share",
        "communication share of critical-path time", "ratio",
    ).set(report.comm_share)
    blame = registry.gauge(
        "critpath_blame_seconds",
        "critical-path seconds per blame category", "seconds",
    )
    for category, seconds in report.blame_seconds.items():
        blame.set(seconds, blame=category)


__all__ = [
    "COMM_BLAMES",
    "CritPathReport",
    "PathSegment",
    "STRAGGLER_THRESHOLD",
    "Straggler",
    "WorkerLoad",
    "critical_path",
    "find_stragglers",
    "publish_critpath_metrics",
    "worker_loads",
]
