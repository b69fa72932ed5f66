"""One serializer for every telemetry sink.

Every backend records activity in the same
:class:`~repro.runtime.trace.Trace` schema (the simulator's virtual
clock, the threads pool's wall clock, the procs mesh's merged lanes),
so every export lives here, once:

* **Chrome/Perfetto trace events** -- the interactive Fig.-10 viewer
  (:func:`to_events` / :func:`dumps` / :func:`write`);
* **OTel-style spans** -- an OpenTelemetry-compatible JSON document
  (``resourceSpans`` / ``scopeSpans`` with span ids and unix-nano
  timestamps) built from the same :class:`Span` schema;
* **collapsed-stack flamegraphs** -- the ``stack;frames count`` lines
  ``flamegraph.pl`` and speedscope consume, for whole traces
  (:func:`flamegraph_folded`) and for the blamed critical path
  (:func:`critpath_folded`).

It also owns :func:`build_trace`, the span-list-to-``Trace``
normalisation both wall-clock recorders previously reimplemented.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Iterable

from ..runtime.trace import Trace
from .critpath import CritPathReport

#: Microseconds per virtual second (trace events use microseconds).
_US = 1e6

#: Stable colour names from the trace-viewer palette per span kind.
_COLORS = {
    "interior": "thread_state_running",
    "boundary": "thread_state_iowait",
    "init": "startup",
    "spmv": "thread_state_running",
    "send": "rail_animation",
    "recv": "rail_load",
}


# ---------------------------------------------------------------------------
# shared trace normalisation
# ---------------------------------------------------------------------------


def build_trace(
    spans: Iterable[tuple],
) -> Trace:
    """Materialise a :class:`Trace` from ``(node, worker, kind, start,
    end, label[, task_id])`` tuples, emitted sorted by start time
    across all lanes -- the order the simulator's trace naturally has.
    Shared by the threads backend's wall-clock recorder and the procs
    backend's cross-process merge.  The seventh element is optional so
    span streams recorded before ``Span.task_id`` existed still load.
    """
    ordered = sorted(spans, key=lambda s: (s[3], s[4]))
    trace = Trace()
    for item in ordered:
        node, worker, kind, start, end, label = item[:6]
        task_id = item[6] if len(item) > 6 else None
        trace.record(node, worker, kind, start, end, label, task_id=task_id)
    return trace


# ---------------------------------------------------------------------------
# Chrome / Perfetto trace events
# ---------------------------------------------------------------------------


def complete_event(name: str, cat: str, pid: int, tid: int,
                   ts: float, dur: float, args: dict | None = None) -> dict[str, Any]:
    """One Chrome complete ('X') event (``ts`` / ``dur`` in microseconds);
    every timeline this package writes builds its spans here."""
    event = {"ph": "X", "name": name, "cat": cat, "pid": pid, "tid": tid,
             "ts": ts, "dur": dur}
    if args is not None:
        event["args"] = args
    return event


def to_events(trace: Trace, time_scale: float = 1.0) -> list[dict[str, Any]]:
    """Convert spans to Chrome trace-event dicts.

    Each node becomes a process, each worker a thread (comm lanes are
    ``comm``), every span a complete ('X') event.  ``time_scale``
    stretches virtual time (useful when spans are nanoseconds-short
    and the viewer rounds them away).
    """
    if time_scale <= 0:
        raise ValueError("time_scale must be positive")
    events: list[dict[str, Any]] = []
    seen_threads: set[tuple[int, int]] = set()
    for span in trace.spans:
        tid = span.worker if span.worker >= 0 else 9999
        key = (span.node, tid)
        if key not in seen_threads:
            seen_threads.add(key)
            events.append({
                "ph": "M",
                "name": "thread_name",
                "pid": span.node,
                "tid": tid,
                "args": {"name": "comm" if span.worker < 0 else f"worker {span.worker}"},
            })
        event = complete_event(
            span.kind, "task" if span.worker >= 0 else "comm", span.node, tid,
            span.start * _US * time_scale, span.duration * _US * time_scale,
            {"label": repr(span.label)} if span.label is not None else None,
        )
        color = _COLORS.get(span.kind)
        if color:
            event["cname"] = color
        events.append(event)
    for node in sorted({s.node for s in trace.spans}):
        events.append({
            "ph": "M",
            "name": "process_name",
            "pid": node,
            "args": {"name": f"node {node}"},
        })
    return events


def dumps(trace: Trace, time_scale: float = 1.0) -> str:
    """The complete Chrome trace JSON document as a string."""
    return json.dumps({
        "traceEvents": to_events(trace, time_scale),
        "displayTimeUnit": "ms",
    })


def write(trace: Trace, path: str, time_scale: float = 1.0) -> None:
    """Write the Chrome trace to ``path`` (open in chrome://tracing)."""
    with open(path, "w") as fh:
        fh.write(dumps(trace, time_scale))


# ---------------------------------------------------------------------------
# collapsed-stack flamegraphs
# ---------------------------------------------------------------------------


def flamegraph_folded(trace: Trace) -> str:
    """The whole trace in collapsed-stack form, one
    ``node;lane;kind count`` line per distinct stack, weighted by
    microseconds.  Pipe through ``flamegraph.pl`` (or drop into
    speedscope) to see where the worker-seconds went."""
    counts: dict[str, int] = {}
    for span in trace.spans:
        lane = "comm" if span.worker < 0 else f"worker {span.worker}"
        stack = f"node {span.node};{lane};{span.kind}"
        counts[stack] = counts.get(stack, 0) + int(round(span.duration * _US))
    return "\n".join(f"{stack} {n}" for stack, n in sorted(counts.items()))


def critpath_folded(report: CritPathReport) -> str:
    """The blamed critical path in collapsed-stack form:
    ``critical path;blame;kind count`` lines weighted by microseconds.
    The resulting flame shows at a glance how much of the makespan was
    compute vs communication vs waiting."""
    counts: dict[str, int] = {}
    for seg in report.segments:
        frames = ["critical path", seg.blame]
        if seg.kind:
            frames.append(seg.kind)
        stack = ";".join(frames)
        counts[stack] = counts.get(stack, 0) + int(round(seg.duration * _US))
    return "\n".join(f"{stack} {n}" for stack, n in sorted(counts.items()))


def write_flamegraph(
    path: str,
    trace: Trace | None = None,
    critpath: CritPathReport | None = None,
) -> None:
    """Write collapsed stacks to ``path``: the trace's, the critical
    path's, or both (they merge cleanly -- distinct root frames)."""
    chunks = []
    if trace is not None and len(trace):
        chunks.append(flamegraph_folded(trace))
    if critpath is not None and critpath.segments:
        chunks.append(critpath_folded(critpath))
    with open(path, "w") as fh:
        fh.write("\n".join(c for c in chunks if c) + "\n")


# ---------------------------------------------------------------------------
# OTel-style spans
# ---------------------------------------------------------------------------


def _span_id(payload: str, nbytes: int) -> str:
    """The first ``nbytes`` of ``payload``'s sha256, in hex: every
    deterministic trace and span id (task spans here, lifecycle spans
    in :mod:`repro.obs.lifecycle`, which reads it through this module
    so a test can count the digests)."""
    return hashlib.sha256(payload.encode()).digest()[:nbytes].hex()


def otel_attributes(items: Iterable[tuple[str, Any]]) -> list[dict[str, Any]]:
    """OTLP typed attribute list of ``(key, value)`` pairs: bool, int,
    float and str values, in the order given; anything else is left out."""
    out = []
    for key, value in items:
        if isinstance(value, bool):
            typed = {"boolValue": value}
        elif isinstance(value, int):
            typed = {"intValue": str(value)}
        elif isinstance(value, float):
            typed = {"doubleValue": value}
        elif isinstance(value, str):
            typed = {"stringValue": value}
        else:
            continue
        out.append({"key": key, "value": typed})
    return out


def otel_span(trace_id: str, span_id: str, name: str, start_ns: int,
              end_ns: int, attributes: list, status: dict | None = None,
              parent_span_id: str | None = None) -> dict[str, Any]:
    """One OTLP/JSON span (``SPAN_KIND_INTERNAL``)."""
    doc = {
        "traceId": trace_id,
        "spanId": span_id,
        "name": name,
        "kind": 1,
        "startTimeUnixNano": str(start_ns),
        "endTimeUnixNano": str(end_ns),
        "attributes": attributes,
        "status": status or {},
    }
    if parent_span_id:
        doc["parentSpanId"] = parent_span_id
    return doc


def otel_document(service_name: str, scope: str, spans: list) -> dict[str, Any]:
    """The OTLP/JSON envelope: one resource, one scope, ``spans``."""
    return {
        "resourceSpans": [{
            "resource": {"attributes": otel_attributes(
                [("service.name", service_name)])},
            "scopeSpans": [{
                "scope": {"name": scope, "version": "1"},
                "spans": spans,
            }],
        }],
    }


def to_otel(
    trace: Trace,
    service_name: str = "repro",
    epoch_unix_nanos: int = 0,
    trace_id: str | None = None,
    parent_span_id: str | None = None,
) -> dict[str, Any]:
    """An OpenTelemetry-compatible JSON document (the OTLP/JSON trace
    shape: ``resourceSpans`` -> ``scopeSpans`` -> ``spans``).

    Trace seconds are mapped onto unix nanoseconds starting at
    ``epoch_unix_nanos``; span ids are deterministic hashes of the
    span *identity* -- node, lane, kind, timing, label plus an
    occurrence counter for exact duplicates -- rather than of the
    enumeration order, so re-exports of the same trace (and exports
    of a re-recorded identical trace) correlate span for span.

    ``trace_id`` overrides the derived document trace id (the serve
    layer passes the request's lifecycle trace id so queue wait and
    task kernels share one trace); ``parent_span_id`` parents every
    exported span under an external span (the request's ``execute``
    lifecycle span).
    """
    if trace_id is None:
        trace_id = _span_id(
            f"{service_name}:{len(trace)}:{trace.makespan()}", 16
        )
    spans = []
    occurrences: dict[str, int] = {}
    for span in trace.spans:
        worker_name = "comm" if span.worker < 0 else f"worker-{span.worker}"
        attributes = otel_attributes([
            ("node", int(span.node)), ("worker", int(span.worker)),
            ("kind", span.kind), ("lane", worker_name),
            ("label", None if span.label is None else repr(span.label)),
            ("task_id", None if span.task_id is None else repr(span.task_id)),
        ])
        identity = (
            f"{span.node}:{span.worker}:{span.kind}:{span.start}:"
            f"{span.end}:{span.label!r}"
        )
        n = occurrences.get(identity, 0)
        occurrences[identity] = n + 1
        spans.append(otel_span(
            trace_id, _span_id(f"{trace_id}:{identity}:{n}", 8), span.kind,
            epoch_unix_nanos + int(span.start * 1e9),
            epoch_unix_nanos + int(span.end * 1e9),
            attributes, parent_span_id=parent_span_id,
        ))
    return otel_document(service_name, "repro.obs", spans)


__all__ = [
    "build_trace",
    "critpath_folded",
    "dumps",
    "flamegraph_folded",
    "to_events",
    "to_otel",
    "write",
    "write_flamegraph",
]
