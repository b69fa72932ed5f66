"""Request-scoped lifecycle tracing, SLO accounting and the flight
recorder of the solver service -- a request's life through the serve
layer (admission, queue wait, dispatch, execution, retries,
checkpoint recovery, response), where execution-level tracing
(:mod:`repro.runtime.trace`) stops at task kernels:

* **Lifecycle spans.**  Every admitted request gets a deterministic
  ``trace_id`` (:func:`request_trace_id`, the one digest a request
  costs); the serve layers record slotted :class:`LifeSpan` records
  (``admit``, ``cache_probe``, ``queued``, ``dispatch``,
  ``execute``, ``retry``, ``recover``, ``respond``)
  into a :class:`LifecycleTracer`, whose span ids become hex only when
  an export or a dump reads them.  Workers -- forked ``ProcessWorker``
  children too -- record into a :class:`SpanLog` that ships back over
  the result pipes and is folded in by :meth:`LifecycleTracer.adopt`
  (``time.monotonic`` is ``CLOCK_MONOTONIC``, shared across fork).
* **SLO accounting.**  :meth:`LifecycleTracer.finish` folds each
  request into per-tenant latency histograms and a per-tenant/status
  counter, the raw material of :mod:`repro.obs.slo`.
* **Flight recorder.**  An always-on bounded ring of references to the
  recorded spans and notes; :meth:`FlightRecorder.dump` writes it
  atomically on a terminal serving failure, and ``repro postmortem``
  renders the dump (:func:`format_postmortem`) with blame.

:func:`combined_otel` / :func:`combined_events` put lifecycle spans and
each request's execution-level task spans on one timeline, the task
spans under the request's ``execute`` span and ``trace_id``.
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
from . import export as _export
from .export import (
    complete_event,
    otel_attributes,
    otel_document,
    otel_span,
    to_events,
    to_otel,
)
from .metrics import MetricRegistry

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
    return _export._span_id(f"{signature}:{seq}", 16)


def root_span_id(trace_id: str) -> str:
    """Span id of the implicit ``request`` root span of a trace."""
    return _export._span_id(f"{trace_id}:request", 8)


def span_id_for(trace_id: str, origin: str, name: str, index: int) -> str:
    """Deterministic 8-byte span id: the trace, the recording
    component (service loop vs a named worker -- disjoint counters
    cannot collide), the span kind, and that component's per-trace
    ordinal."""
    return _export._span_id(f"{trace_id}:{origin}:{name}:{index}", 8)


def _derive(trace_id: str, origin: str | None, name: str, index: int) -> str:
    return (root_span_id(trace_id) if origin is None
            else span_id_for(trace_id, origin, name, index))


#: ``LifeSpan.parent`` of a span under its trace's ``request`` root.
_ROOT = ""

#: One attribute-name tuple per distinct set of span keywords.
_ATTR_KEYS: dict[tuple[str, ...], tuple[str, ...]] = {}


def _attrs(attrs: Mapping[str, Any]) -> tuple[tuple[str, ...], tuple]:
    keys = tuple(attrs)
    return _ATTR_KEYS.setdefault(keys, keys), tuple(attrs.values())


@dataclass(slots=True, eq=False)
class SpanRef:
    """A span id before anything reads it: what its hex derives from
    (as in :class:`LifeSpan`).  ``str()`` hashes it once; it compares
    and hashes as that hex string."""

    trace_id: str
    origin: str | None
    name: str
    index: int
    _hex: str | None = None

    def __str__(self) -> str:
        if self._hex is None:
            self._hex = _derive(self.trace_id, self.origin, self.name,
                                self.index)
        return self._hex

    def __eq__(self, other: object) -> bool:
        return isinstance(other, (str, SpanRef)) and str(self) == str(other)

    def __hash__(self) -> int:
        return hash(str(self))


@dataclass(slots=True, eq=False)
class LifeSpan:
    """One lifecycle span: a slotted record of what happened and of what
    its ids derive from -- the recording ``origin`` (None: the trace's
    ``request`` root), ``name`` and that origin's per-trace ``index``
    (:func:`span_id_for` / :func:`root_span_id`, hashed once read);
    ``parent`` is a :class:`SpanRef`, ``_ROOT`` or None.  The attrs are
    an interned key tuple and a value tuple (``attrs`` builds the dict).
    Pickles across the pool's pipes as it is."""

    trace_id: str
    name: str
    start: float
    end: float
    status: str
    tenant: str
    attr_keys: tuple[str, ...]
    attr_values: tuple
    origin: str | None
    index: int
    parent: SpanRef | str | None
    _hex: str | None = None

    @property
    def span_id(self) -> str:
        if self._hex is None:
            self._hex = _derive(self.trace_id, self.origin, self.name,
                                self.index)
        return self._hex

    @property
    def parent_span_id(self) -> str | None:
        if self.parent is None:
            return None
        return str(self.parent) if self.parent else root_span_id(self.trace_id)

    @property
    def attrs(self) -> dict[str, Any]:
        return dict(zip(self.attr_keys, self.attr_values))

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
            "attrs": self.scalar_attrs(),
        }

    def scalar_attrs(self) -> dict[str, Any]:
        """The attrs a JSON export keeps: bool, int, float, str, None."""
        return {k: v for k, v in zip(self.attr_keys, self.attr_values)
                if isinstance(v, (bool, int, float, str)) or v is None}


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

    def allocate(self, trace_id: str, name: str) -> SpanRef:
        """Reserve the next span id of ``trace_id`` without recording
        yet -- lets a parent hand its id to children it is about to
        run (``execute`` parents ``recover``)."""
        index = self._n.get(trace_id, 0)
        self._n[trace_id] = index + 1
        return SpanRef(trace_id, self.origin, name, index)

    def span(
        self,
        trace_id: str,
        name: str,
        start: float,
        end: float,
        status: str = "ok",
        tenant: str = "default",
        parent_span_id: SpanRef | None = None,
        span_id: SpanRef | None = None,
        **attrs: Any,
    ) -> LifeSpan:
        ref = self.allocate(trace_id, name) if span_id is None else span_id
        sp = LifeSpan(
            trace_id, name, float(start), float(end), status, tenant,
            *_attrs(attrs), ref.origin, ref.index,
            _ROOT if parent_span_id is None else parent_span_id,
            # an id allocated under another name keeps that name's hex
            ref._hex if ref.name == name else str(ref),
        )
        self.spans.append(sp)
        return sp


class FlightRecorder:
    """Bounded in-memory ring of lifecycle events, dumped on demand.

    Always on: the ring holds the recorded :class:`LifeSpan` objects
    (the retained traces share them) and the :meth:`note` dicts; a span
    becomes a dict only in :meth:`events` / :meth:`dump`.  Recording is
    one deque extend under a lock; with its tracer it costs a 256^2
    served request +1.7 % (median of nine ``bench_serve.py`` gate runs,
    -0.6 to +3.3 %).  On a fatal serving error the service calls
    :meth:`dump`, which writes the ring atomically under a name no
    other dump holds (:func:`~repro.core.store.atomic_create`).
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
        self._ring: deque[LifeSpan | dict] = deque(maxlen=capacity)
        self._dumped = 0

    def record(self, *spans: LifeSpan) -> None:
        with self._lock:
            self._ring.extend(spans)

    def note(self, kind: str, **fields: Any) -> None:
        """A point event (retry decisions, dump triggers, ...)."""
        with self._lock:
            self._ring.append({
                "event": kind, "t": time.monotonic(), **fields,
            })

    def events(self) -> list[dict]:
        """The ring, oldest first; a span is rendered to its dict here."""
        with self._lock:
            ring = list(self._ring)
        return [e if isinstance(e, dict) else {"event": "span", **e.to_doc()}
                for e in ring]

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
        events = self.events()
        with self._lock:
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


@dataclass(slots=True, eq=False)
class _Trace:
    """A retained trace: spans, the service loop's counter, and the
    signature prefix the ``request`` root reports."""

    tenant: str
    signature: str = ""
    t_admit: float | None = None
    spans: list[LifeSpan] = field(default_factory=list)
    n: int = 0
    done: bool = False


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
        self._traces: "OrderedDict[str, _Trace]" = OrderedDict()
        self._metrics = metrics
        #: (tenant, status) -> its three SLO histogram cells and counter cell
        self._slo_cells: dict[tuple[str, str], tuple] = {}
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
        entry = _Trace(tenant, signature[:16],
                       time.monotonic() if t_admit is None else t_admit)
        with self._lock:
            self._traces[trace_id] = entry
            self._evict_locked()
        return trace_id

    def _entry_locked(self, trace_id: str, tenant: str = "default") -> _Trace:
        entry = self._traces.get(trace_id)
        if entry is None:
            entry = self._traces[trace_id] = _Trace(tenant)
        return entry

    def _evict_locked(self) -> None:
        while len(self._traces) > self.max_traces:
            for tid, entry in self._traces.items():
                if entry.done:
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
        parent_span_id: SpanRef | str | None = None,
        **attrs: Any,
    ) -> LifeSpan:
        with self._lock:
            entry = self._entry_locked(trace_id)
            sp = LifeSpan(
                trace_id, name, float(start), float(end), status,
                entry.tenant, *_attrs(attrs), "svc", entry.n,
                _ROOT if parent_span_id is None else parent_span_id,
            )
            entry.n += 1
            entry.spans.append(sp)
        if self.recorder is not None:
            self.recorder.record(sp)
        return sp

    def adopt(self, spans: Iterable[LifeSpan]) -> None:
        """File worker-recorded spans under their traces."""
        spans = list(spans)
        with self._lock:
            for sp in spans:
                self._entry_locked(sp.trace_id, tenant=sp.tenant).spans.append(sp)
        if self.recorder is not None:
            self.recorder.record(*spans)

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
            if entry is None or entry.done:
                return None
            entry.done = True
            tenant = entry.tenant
            t_admit = entry.t_admit
            if t_admit is None:
                t_admit = min((s.start for s in entry.spans), default=now)
            span_status = "error" if status in ERROR_STATUSES else "ok"
            respond = LifeSpan(
                trace_id, "respond", now, now, span_status, tenant,
                *_attrs({"outcome": status}), "svc", entry.n, _ROOT,
            )
            entry.n += 1
            root = LifeSpan(
                trace_id, "request", t_admit, now, span_status, tenant,
                *_attrs({"outcome": status, "signature": entry.signature}),
                None, 0, None,
            )
            entry.spans += (respond, root)
            queue_wait = exec_s = 0
            for s in entry.spans:
                if s.name == "queued":
                    queue_wait += s.duration
                elif s.name == "execute":
                    exec_s += s.duration
            e2e = max(0.0, now - t_admit)
            if self._metrics is not None:
                cells = self._slo_cells.get((tenant, status))
                if cells is None:  # first such request: find its cells once
                    cells = self._slo_cells[tenant, status] = (
                        self._h_queue.labels(tenant=tenant),
                        self._h_exec.labels(tenant=tenant),
                        self._h_e2e.labels(tenant=tenant),
                        self._c_requests.labels(tenant=tenant, status=status))
                cells[0].observe(queue_wait)
                cells[1].observe(exec_s)
                cells[2].observe(e2e)
                cells[3].add(1)
        if self.recorder is not None:
            self.recorder.record(respond, root)
        return {
            "tenant": tenant, "status": status,
            "queue_wait_s": queue_wait, "exec_s": exec_s, "e2e_s": e2e,
        }

    # -- introspection ---------------------------------------------------

    def spans_of(self, trace_id: str) -> list[LifeSpan]:
        with self._lock:
            entry = self._traces.get(trace_id)
            return list(entry.spans) if entry else []

    def all_spans(self) -> list[LifeSpan]:
        with self._lock:
            return [
                sp for entry in self._traces.values()
                for sp in entry.spans
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
        args: dict[str, Any] = {"trace_id": sp.trace_id,
                                "span_id": sp.span_id, "status": sp.status}
        parent = sp.parent_span_id
        if parent:
            args["parent_span_id"] = parent
        args.update(sp.scalar_attrs())
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
            ev = {**ev, "args": {**(ev.get("args") or {}), "trace_id": trace_id}}
            if "ts" in ev:
                ev["ts"] += shift
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
    trace ids are the deterministic ids the span records derive, so
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
                             *sorted(zip(sp.attr_keys, sp.attr_values))]),
            status, sp.parent_span_id,
        ))
    doc = otel_document(service_name, "repro.obs.lifecycle", out)
    for trace_id, trace in (exec_traces or {}).items():
        anchor = _execute_span(spans, trace_id)
        if anchor is None or trace is None:
            continue
        child = to_otel(
            trace, service_name=service_name,
            epoch_unix_nanos=epoch_unix_nanos + int((anchor.start - origin) * 1e9),
            trace_id=trace_id, parent_span_id=anchor.span_id,
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
            json.dump(combined_otel(spans, exec_traces,
                                    service_name=service_name), fh)
        written["otel"] = str(otel_path)
    return written


# ---------------------------------------------------------------------------
# post-mortem rendering
# ---------------------------------------------------------------------------


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
    spans = [e for e in doc.get("events", []) if e.get("event") == "span"]
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
    "LifeSpan",
    "LifecycleTracer",
    "POSTMORTEM_KIND",
    "SERVICE_PID",
    "SpanLog",
    "SpanRef",
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
