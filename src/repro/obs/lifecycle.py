"""Request-scoped lifecycle tracing, SLO accounting and the flight
recorder of the solver service.

Execution-level tracing (:mod:`repro.runtime.trace`) stops at task
kernels; a request's life through the serve layer -- admission, queue
wait, dispatch, rewrite passes, execution, retries, checkpoint
recovery, response -- was invisible except as aggregate counters.  This module closes that gap with three cooperating pieces:

* **Lifecycle spans.**  Every admitted :class:`SolveRequest` gets a
  deterministic ``trace_id`` (:func:`request_trace_id`); the service
  layers emit typed :class:`LifeSpan` records (``admit``,
  ``cache_probe``, ``queued``, ``dispatch``, ``ir_passes``,
  ``execute``, ``retry``, ``recover``, ``respond``) into a
  :class:`LifecycleTracer`.  Workers -- including forked
  ``ProcessWorker`` children -- collect spans into a plain
  :class:`SpanLog` that ships back over the existing result pipes and
  is folded in with :meth:`LifecycleTracer.adopt` (``time.monotonic``
  is ``CLOCK_MONOTONIC`` on Linux, shared across fork, so child
  timestamps land on the parent's timeline unadjusted).

* **SLO accounting.**  :meth:`LifecycleTracer.finish` folds each
  completed request into per-tenant latency histograms
  (``slo_queue_wait_seconds`` / ``slo_exec_seconds`` /
  ``slo_e2e_seconds``) and a per-tenant/status request counter, the
  raw material of :mod:`repro.obs.slo` and the ``repro slo`` report.

* **Flight recorder.**  A bounded ring of lifecycle events, always
  on; :meth:`FlightRecorder.dump` writes it atomically to disk when
  the service hits ``WorkerDied`` / ``NodeLostError`` / ``PassError``
  or exhausts a retry budget, and ``repro postmortem`` renders the
  dump (:func:`format_postmortem`) as a terminal timeline with blame.

The export helpers place lifecycle spans and execution-level task
spans on one timeline: :func:`combined_otel` threads the request's
``trace_id`` through :func:`repro.obs.export.to_otel` and parents the
task spans under the request's ``execute`` span;
:func:`combined_events` does the same for the Chrome viewer.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import OrderedDict, deque
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Mapping

from ..core.store import atomic_create
from .export import (
    _span_id,
    complete_event,
    otel_attributes,
    otel_document,
    otel_span,
    to_events,
    to_otel,
)
from .metrics import MetricRegistry

#: The span taxonomy, in the order a request normally traverses it.
LIFECYCLE_KINDS = (
    "admit", "cache_probe", "queued", "dispatch",
    "ir_passes", "execute", "retry", "recover", "respond",
)

#: Statuses that consume SLO error budget (``rejected`` does not:
#: admission control refusing overload is the service working).
ERROR_STATUSES = ("error", "expired", "skipped")

#: Synthetic Chrome-trace process id of the service-lifecycle lanes
#: (node pids are small integers).
SERVICE_PID = 9990

#: Document kind of a flight-recorder dump.
POSTMORTEM_KIND = "repro-postmortem"


def request_trace_id(signature: str, seq: int) -> str:
    """Deterministic 16-byte trace id of one admitted request: the
    solve signature plus the service-local admission ordinal, so a
    replayed workload reproduces its trace ids exactly."""
    return _span_id(f"{signature}:{seq}", 16)


def root_span_id(trace_id: str) -> str:
    """Span id of the implicit ``request`` root span of a trace."""
    return _span_id(f"{trace_id}:request", 8)


def span_id_for(trace_id: str, origin: str, name: str, index: int) -> str:
    """Deterministic 8-byte span id: the trace, the recording
    component (service loop vs a named worker -- disjoint counters
    cannot collide), the span kind, and that component's per-trace
    ordinal."""
    return _span_id(f"{trace_id}:{origin}:{name}:{index}", 8)


@dataclass
class LifeSpan:
    """One lifecycle span.  Plain data -- pickles across the pool's
    pipes and serialises into flight-recorder dumps unchanged."""

    trace_id: str
    span_id: str
    parent_span_id: str | None
    name: str
    start: float
    end: float
    status: str = "ok"
    tenant: str = "default"
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return max(0.0, self.end - self.start)

    def to_doc(self) -> dict[str, Any]:
        return {
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_span_id": self.parent_span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "status": self.status,
            "tenant": self.tenant,
            "attrs": {
                k: v for k, v in self.attrs.items()
                if isinstance(v, (bool, int, float, str)) or v is None
            },
        }

    @classmethod
    def from_doc(cls, doc: Mapping[str, Any]) -> "LifeSpan":
        return cls(
            trace_id=str(doc["trace_id"]),
            span_id=str(doc["span_id"]),
            parent_span_id=doc.get("parent_span_id"),
            name=str(doc["name"]),
            start=float(doc["start"]),
            end=float(doc["end"]),
            status=str(doc.get("status", "ok")),
            tenant=str(doc.get("tenant", "default")),
            attrs=dict(doc.get("attrs", {})),
        )


class SpanLog:
    """Lock-free span collector for one pool worker.

    Workers (the forked ones especially) cannot share the service's
    tracer; they record into a log whose spans ride the existing
    result pipes home, where :meth:`LifecycleTracer.adopt` files them
    under their traces.  ``origin`` namespaces the span ids so a
    worker's counters never collide with the service loop's."""

    def __init__(self, origin: str = "worker") -> None:
        self.origin = origin
        self.spans: list[LifeSpan] = []
        self._n: dict[str, int] = {}

    def allocate(self, trace_id: str, name: str) -> str:
        """Reserve the next span id of ``trace_id`` without recording
        yet -- lets a parent hand its id to children it is about to
        run (``execute`` parents ``ir_passes`` / ``recover``)."""
        index = self._n.get(trace_id, 0)
        self._n[trace_id] = index + 1
        return span_id_for(trace_id, self.origin, name, index)

    def span(
        self,
        trace_id: str,
        name: str,
        start: float,
        end: float,
        status: str = "ok",
        tenant: str = "default",
        parent_span_id: str | None = None,
        span_id: str | None = None,
        **attrs: Any,
    ) -> LifeSpan:
        if span_id is None:
            span_id = self.allocate(trace_id, name)
        sp = LifeSpan(
            trace_id=trace_id,
            span_id=span_id,
            parent_span_id=(
                parent_span_id if parent_span_id is not None
                else root_span_id(trace_id)
            ),
            name=name,
            start=float(start),
            end=float(end),
            status=status,
            tenant=tenant,
            attrs=dict(attrs),
        )
        self.spans.append(sp)
        return sp


class FlightRecorder:
    """Bounded in-memory ring of lifecycle events, dumped on demand.

    Always on: recording is one deque append under a lock (well under
    the <3% overhead budget the metrics registry set).  On a fatal
    serving error the service calls :meth:`dump`, which snapshots the
    ring and writes it atomically under a name no other dump holds
    (:func:`~repro.core.store.atomic_create`), so a post-mortem never
    reads a torn file and never replaces another recorder's.
    """

    SCHEMA = 1

    def __init__(
        self, capacity: int = 4096, max_dumps: int | None = None
    ) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity}")
        if max_dumps is not None and max_dumps < 1:
            raise ValueError(f"max_dumps must be positive, got {max_dumps}")
        self.capacity = capacity
        #: retention cap: after each dump, only the newest
        #: ``max_dumps`` ``postmortem-*.json`` files survive in the
        #: dump directory (None = keep everything, the historical
        #: behaviour).  Terminal failures during long chaos runs
        #: would otherwise grow the directory without bound.
        self.max_dumps = max_dumps
        self._lock = threading.Lock()
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._dumped = 0

    def record_span(self, span: LifeSpan) -> None:
        with self._lock:
            self._ring.append({"event": "span", **span.to_doc()})

    def note(self, kind: str, **fields: Any) -> None:
        """A point event (retry decisions, dump triggers, ...)."""
        with self._lock:
            self._ring.append({
                "event": kind, "t": time.monotonic(), **fields,
            })

    def events(self) -> list[dict]:
        with self._lock:
            return list(self._ring)

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def dump(
        self,
        directory: str | Path,
        reason: str,
        error: str | None = None,
        trace_ids: Iterable[str] = (),
        extra: Mapping[str, Any] | None = None,
    ) -> Path:
        """Write the ring to ``directory`` atomically; returns the
        dump path, ``postmortem-<reason>-<n>.json`` with ``n`` this
        recorder's dump count, or the next number no file in
        ``directory`` holds yet (other recorders -- another service,
        an earlier process -- may share it)."""
        with self._lock:
            events = list(self._ring)
            self._dumped += 1
            ordinal = self._dumped
        doc = {
            "kind": POSTMORTEM_KIND,
            "schema": self.SCHEMA,
            "reason": reason,
            "error": error,
            "trace_ids": list(trace_ids),
            "monotonic": time.monotonic(),
            "events": events,
        }
        if extra:
            doc.update(extra)
        directory = Path(directory)
        path = atomic_create(
            (directory / f"postmortem-{reason}-{k:03d}.json"
             for k in itertools.count(ordinal)),
            lambda fh: fh.write(json.dumps(doc).encode()),
        )
        self._prune_dumps(directory)
        return path

    def _prune_dumps(self, directory: Path) -> None:
        """Drop the oldest ``postmortem-*.json`` beyond the retention
        cap (oldest by mtime, name as the same-second tiebreak)."""
        if self.max_dumps is None:
            return

        def age(p: Path) -> tuple[float, str]:
            try:
                return (p.stat().st_mtime, p.name)
            except OSError:  # raced with another pruner
                return (0.0, p.name)

        dumps = sorted(directory.glob("postmortem-*.json"), key=age)
        for victim in dumps[:-self.max_dumps]:
            try:
                victim.unlink()
            except OSError:  # already gone, or unwritable: not fatal
                pass


def load_postmortem(path: str | Path) -> dict:
    """Load and validate one flight-recorder dump."""
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict) or doc.get("kind") != POSTMORTEM_KIND:
        raise ValueError(
            f"{path}: not a flight-recorder dump (expected kind="
            f"{POSTMORTEM_KIND!r})"
        )
    return doc


class LifecycleTracer:
    """Per-request span store plus the SLO fold-in.

    ``begin`` opens a trace at admission; the serve layers record
    spans against it (and workers' :class:`SpanLog` batches are
    ``adopt``-ed); ``finish`` closes it -- emitting the ``respond``
    marker and the root ``request`` span, then observing queue-wait /
    execution / end-to-end latency into per-tenant histograms and the
    per-status request counter.  Completed traces are retained up to
    ``max_traces`` (oldest evicted) for the timeline exports.
    """

    def __init__(
        self,
        metrics: MetricRegistry | None = None,
        recorder: FlightRecorder | None = None,
        max_traces: int = 512,
    ) -> None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be positive, got {max_traces}")
        self.recorder = recorder
        self.max_traces = max_traces
        self._lock = threading.Lock()
        self._traces: "OrderedDict[str, dict]" = OrderedDict()
        self._metrics = metrics
        if metrics is not None:
            self._h_queue = metrics.histogram(
                "slo_queue_wait_seconds",
                "per-tenant queue wait before dispatch", "seconds",
            )
            self._h_exec = metrics.histogram(
                "slo_exec_seconds",
                "per-tenant wall time executing the solve", "seconds",
            )
            self._h_e2e = metrics.histogram(
                "slo_e2e_seconds",
                "per-tenant end-to-end latency, admit to respond", "seconds",
            )
            self._c_requests = metrics.counter(
                "slo_requests_total",
                "finished requests, by tenant and terminal status",
            )

    # -- trace lifecycle -------------------------------------------------

    def begin(
        self,
        signature: str,
        seq: int,
        tenant: str = "default",
        t_admit: float | None = None,
    ) -> str:
        trace_id = request_trace_id(signature, seq)
        with self._lock:
            self._traces[trace_id] = {
                "tenant": tenant,
                "signature": signature,
                "t_admit": time.monotonic() if t_admit is None else t_admit,
                "spans": [],
                "n": 0,
                "done": False,
                "status": None,
            }
            self._evict_locked()
        return trace_id

    def _entry_locked(self, trace_id: str, tenant: str = "default") -> dict:
        entry = self._traces.get(trace_id)
        if entry is None:
            entry = {
                "tenant": tenant, "signature": "", "t_admit": None,
                "spans": [], "n": 0, "done": False, "status": None,
            }
            self._traces[trace_id] = entry
        return entry

    def _evict_locked(self) -> None:
        while len(self._traces) > self.max_traces:
            for tid, entry in self._traces.items():
                if entry["done"]:
                    del self._traces[tid]
                    break
            else:
                # Everything in flight: evict the oldest regardless,
                # the bound is the contract.
                self._traces.popitem(last=False)

    def span(
        self,
        trace_id: str,
        name: str,
        start: float,
        end: float,
        status: str = "ok",
        parent_span_id: str | None = None,
        **attrs: Any,
    ) -> LifeSpan:
        with self._lock:
            entry = self._entry_locked(trace_id)
            index = entry["n"]
            entry["n"] += 1
            sp = LifeSpan(
                trace_id=trace_id,
                span_id=span_id_for(trace_id, "svc", name, index),
                parent_span_id=(
                    parent_span_id if parent_span_id is not None
                    else root_span_id(trace_id)
                ),
                name=name,
                start=float(start),
                end=float(end),
                status=status,
                tenant=entry["tenant"],
                attrs=dict(attrs),
            )
            entry["spans"].append(sp)
        if self.recorder is not None:
            self.recorder.record_span(sp)
        return sp

    def adopt(self, spans: Iterable[LifeSpan]) -> None:
        """File worker-recorded spans under their traces."""
        for sp in spans:
            with self._lock:
                entry = self._entry_locked(sp.trace_id, tenant=sp.tenant)
                entry["spans"].append(sp)
            if self.recorder is not None:
                self.recorder.record_span(sp)

    def finish(
        self,
        trace_id: str | None,
        status: str,
        now: float | None = None,
    ) -> dict | None:
        """Close a trace: emit ``respond`` plus the root ``request``
        span and fold the request into the SLO metrics.  Idempotent;
        returns the latency summary (or None for unknown/finished
        traces)."""
        if trace_id is None:
            return None
        now = time.monotonic() if now is None else now
        with self._lock:
            entry = self._traces.get(trace_id)
            if entry is None or entry["done"]:
                return None
            entry["done"] = True
            entry["status"] = status
            tenant = entry["tenant"]
            t_admit = entry["t_admit"]
            if t_admit is None:
                t_admit = min(
                    (s.start for s in entry["spans"]), default=now
                )
            span_status = "error" if status in ERROR_STATUSES else "ok"
            respond = LifeSpan(
                trace_id=trace_id,
                span_id=span_id_for(trace_id, "svc", "respond", entry["n"]),
                parent_span_id=root_span_id(trace_id),
                name="respond",
                start=now,
                end=now,
                status=span_status,
                tenant=tenant,
                attrs={"outcome": status},
            )
            entry["n"] += 1
            root = LifeSpan(
                trace_id=trace_id,
                span_id=root_span_id(trace_id),
                parent_span_id=None,
                name="request",
                start=t_admit,
                end=now,
                status=span_status,
                tenant=tenant,
                attrs={"outcome": status,
                       "signature": entry["signature"][:16]},
            )
            entry["spans"].extend((respond, root))
            queue_wait = sum(
                s.duration for s in entry["spans"] if s.name == "queued"
            )
            exec_s = sum(
                s.duration for s in entry["spans"] if s.name == "execute"
            )
            e2e = max(0.0, now - t_admit)
            if self._metrics is not None:
                self._h_queue.observe(queue_wait, tenant=tenant)
                self._h_exec.observe(exec_s, tenant=tenant)
                self._h_e2e.observe(e2e, tenant=tenant)
                self._c_requests.inc(tenant=tenant, status=status)
        if self.recorder is not None:
            self.recorder.record_span(respond)
            self.recorder.record_span(root)
        return {
            "tenant": tenant, "status": status,
            "queue_wait_s": queue_wait, "exec_s": exec_s, "e2e_s": e2e,
        }

    # -- introspection ---------------------------------------------------

    def tenant_of(self, trace_id: str) -> str:
        with self._lock:
            entry = self._traces.get(trace_id)
            return entry["tenant"] if entry else "default"

    def spans_of(self, trace_id: str) -> list[LifeSpan]:
        with self._lock:
            entry = self._traces.get(trace_id)
            return list(entry["spans"]) if entry else []

    def all_spans(self) -> list[LifeSpan]:
        with self._lock:
            return [
                sp for entry in self._traces.values()
                for sp in entry["spans"]
            ]

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def __len__(self) -> int:
        with self._lock:
            return len(self._traces)


# ---------------------------------------------------------------------------
# combined timeline exports (lifecycle + execution-level Trace)
# ---------------------------------------------------------------------------


def _execute_span(spans: Iterable[LifeSpan], trace_id: str) -> LifeSpan | None:
    """The (latest) ``execute`` span of one trace -- the parent the
    execution-level task spans hang under."""
    found = None
    for sp in spans:
        if sp.trace_id == trace_id and sp.name == "execute":
            if found is None or sp.start >= found.start:
                found = sp
    return found


def _time_origin(spans: list[LifeSpan], time_origin: float | None) -> float:
    if time_origin is not None:
        return time_origin
    return min((s.start for s in spans), default=0.0)


def lifecycle_events(
    spans: Iterable[LifeSpan],
    time_origin: float | None = None,
) -> list[dict[str, Any]]:
    """Chrome trace events of the lifecycle spans: one synthetic
    process (:data:`SERVICE_PID`), one lane per trace, timestamps
    relative to the earliest span (or ``time_origin``)."""
    spans = sorted(spans, key=lambda s: (s.start, s.end))
    if not spans:
        return []
    origin = _time_origin(spans, time_origin)
    events: list[dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": SERVICE_PID,
        "args": {"name": "serve lifecycle"},
    }]
    lanes: dict[str, int] = {}
    for sp in spans:
        lane = lanes.get(sp.trace_id)
        if lane is None:
            lane = len(lanes) + 1
            lanes[sp.trace_id] = lane
            events.append({
                "ph": "M", "name": "thread_name", "pid": SERVICE_PID,
                "tid": lane,
                "args": {"name": f"{sp.tenant} {sp.trace_id[:8]}"},
            })
        args: dict[str, Any] = {
            "trace_id": sp.trace_id,
            "span_id": sp.span_id,
            "status": sp.status,
        }
        if sp.parent_span_id:
            args["parent_span_id"] = sp.parent_span_id
        for key, value in sp.attrs.items():
            if isinstance(value, (bool, int, float, str)) or value is None:
                args[key] = value
        events.append(complete_event(
            sp.name, "lifecycle", SERVICE_PID, lane,
            (sp.start - origin) * 1e6, sp.duration * 1e6, args,
        ))
    return events


def combined_events(
    spans: Iterable[LifeSpan],
    exec_traces: Mapping[str, Any] | None = None,
    time_origin: float | None = None,
) -> list[dict[str, Any]]:
    """One Chrome timeline: lifecycle lanes plus each request's
    execution-level task spans (``exec_traces`` maps trace_id ->
    :class:`~repro.runtime.trace.Trace`), the latter shifted to start
    at the request's ``execute`` span so queue wait and task kernels
    share one clock."""
    spans = sorted(spans, key=lambda s: (s.start, s.end))
    events = lifecycle_events(spans, time_origin=time_origin)
    if not spans or not exec_traces:
        return events
    origin = _time_origin(spans, time_origin)
    for trace_id, trace in exec_traces.items():
        anchor = _execute_span(spans, trace_id)
        if anchor is None or trace is None:
            continue
        shift = (anchor.start - origin) * 1e6
        for ev in to_events(trace):
            ev = dict(ev)
            if "ts" in ev:
                ev["ts"] = ev["ts"] + shift
            args = dict(ev.get("args") or {})
            args["trace_id"] = trace_id
            ev["args"] = args
            events.append(ev)
    return events


def combined_otel(
    spans: Iterable[LifeSpan],
    exec_traces: Mapping[str, Any] | None = None,
    service_name: str = "repro-serve",
    epoch_unix_nanos: int = 0,
    time_origin: float | None = None,
) -> dict[str, Any]:
    """One OTel (OTLP/JSON) document: the lifecycle spans -- span and
    trace ids are the deterministic ids recorded on the spans, so
    re-exports (and the Chrome export's ``args``) correlate exactly --
    plus, per request with a captured execution :class:`Trace`, the
    task-level spans exported under the *same* ``trace_id`` with their
    ``parentSpanId`` set to the request's ``execute`` span -- the
    acceptance shape: queue wait and task kernels in one trace tree."""
    spans = sorted(spans, key=lambda s: (s.trace_id, s.start, s.end))
    origin = _time_origin(spans, time_origin)
    out = []
    for sp in spans:
        status: dict[str, Any] = {}
        if sp.status != "ok":
            status = {"code": 2, "message": str(sp.attrs.get("error", sp.status))}
        out.append(otel_span(
            sp.trace_id, sp.span_id, sp.name,
            epoch_unix_nanos + int((sp.start - origin) * 1e9),
            epoch_unix_nanos + int((sp.end - origin) * 1e9),
            otel_attributes([("tenant", sp.tenant), ("status", sp.status),
                             *sorted(sp.attrs.items())]),
            status, sp.parent_span_id,
        ))
    doc = otel_document(service_name, "repro.obs.lifecycle", out)
    for trace_id, trace in (exec_traces or {}).items():
        anchor = _execute_span(spans, trace_id)
        if anchor is None or trace is None:
            continue
        child = to_otel(
            trace,
            service_name=service_name,
            epoch_unix_nanos=(
                epoch_unix_nanos + int((anchor.start - origin) * 1e9)
            ),
            trace_id=trace_id,
            parent_span_id=anchor.span_id,
        )
        doc["resourceSpans"].extend(child["resourceSpans"])
    return doc


def write_timeline(
    spans: Iterable[LifeSpan],
    exec_traces: Mapping[str, Any] | None = None,
    chrome_path: str | Path | None = None,
    otel_path: str | Path | None = None,
    service_name: str = "repro-serve",
) -> dict[str, str]:
    """Write the combined timeline in the requested formats; returns
    ``{format: path}`` for what was written."""
    spans = list(spans)
    written: dict[str, str] = {}
    if chrome_path is not None:
        with open(chrome_path, "w") as fh:
            json.dump({
                "traceEvents": combined_events(spans, exec_traces),
                "displayTimeUnit": "ms",
            }, fh)
        written["chrome"] = str(chrome_path)
    if otel_path is not None:
        with open(otel_path, "w") as fh:
            json.dump(combined_otel(
                spans, exec_traces, service_name=service_name,
            ), fh)
        written["otel"] = str(otel_path)
    return written


# ---------------------------------------------------------------------------
# post-mortem rendering
# ---------------------------------------------------------------------------


def _span_events(doc: Mapping[str, Any]) -> list[dict]:
    return [e for e in doc.get("events", []) if e.get("event") == "span"]


def format_postmortem(doc: Mapping[str, Any], width: int = 100) -> str:
    """Render one flight-recorder dump as a terminal timeline.

    Shows the dump header, then -- for each trace the failure
    implicated -- the request's span chain in chronological order
    with relative timestamps, and a blame line naming the span where
    the request died (the error span, or the longest span when the
    failure carried no span-level error)."""
    lines = [f"postmortem: reason={doc.get('reason', '?')}"]
    if doc.get("error"):
        lines.append(f"  error: {doc['error']}")
    spans = _span_events(doc)
    by_trace: dict[str, list[dict]] = {}
    for ev in spans:
        by_trace.setdefault(ev["trace_id"], []).append(ev)
    lines.append(
        f"  captured {len(doc.get('events', []))} events across "
        f"{len(by_trace)} trace(s)"
    )
    failing = [t for t in doc.get("trace_ids", []) if t in by_trace]
    if not failing:
        # No explicit culprits: every trace carrying an error span.
        failing = [
            tid for tid, evs in by_trace.items()
            if any(e.get("status") == "error" for e in evs)
        ]
    for tid in failing:
        evs = sorted(by_trace[tid], key=lambda e: (e["start"], e["end"]))
        tenant = evs[0].get("tenant", "default")
        t0 = min(e["start"] for e in evs)
        lines.append("")
        lines.append(f"trace {tid[:16]} (tenant={tenant}) -- failing span chain:")
        for ev in evs:
            dur = max(0.0, ev["end"] - ev["start"])
            attrs = ev.get("attrs") or {}
            detail = "  ".join(
                f"{k}={v}" for k, v in sorted(attrs.items())
                if k not in ("signature",)
            )
            row = (
                f"  +{ev['start'] - t0:9.3f}s  {dur:9.3f}s  "
                f"{ev['name']:<11} {ev.get('status', 'ok'):<7} {detail}"
            )
            lines.append(row.rstrip()[:width])
        blamed = None
        for ev in evs:
            # request/respond are envelope spans that merely echo the
            # terminal status; blame the span where the work died.
            if ev.get("status") == "error" and (
                ev["name"] not in ("request", "respond")
            ):
                blamed = ev  # keep the last error span
        if blamed is None:
            blamed = max(evs, key=lambda e: e["end"] - e["start"])
        reason = (blamed.get("attrs") or {}).get("error")
        tail = f" -- {reason}" if reason else ""
        lines.append(
            f"  blame: {blamed['name']} "
            f"({max(0.0, blamed['end'] - blamed['start']):.3f} s, "
            f"status={blamed.get('status', 'ok')}){tail}"
        )
    if not failing:
        lines.append("  (no failing trace captured in the ring)")
    return "\n".join(lines)


__all__ = [
    "ERROR_STATUSES",
    "FlightRecorder",
    "LIFECYCLE_KINDS",
    "LifeSpan",
    "LifecycleTracer",
    "POSTMORTEM_KIND",
    "SERVICE_PID",
    "SpanLog",
    "combined_events",
    "combined_otel",
    "format_postmortem",
    "lifecycle_events",
    "load_postmortem",
    "request_trace_id",
    "root_span_id",
    "span_id_for",
    "write_timeline",
]
