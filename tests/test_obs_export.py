"""The unified exporters and the debug-mode trace validator.

``obs/export.py`` is the single serializer behind the Chrome viewer,
OTel-style span documents and collapsed-stack flamegraphs;
``Trace.validate()`` is the debug gate (``REPRO_DEBUG_TRACE``) the
engine and both real backends run after a traced run.
"""

from __future__ import annotations

import pytest

from repro.obs import DEBUG_TRACE_ENV, trace_validation_enabled
from repro.obs.export import build_trace, to_otel
from repro.runtime.trace import Trace


def _trace() -> Trace:
    return build_trace([
        (0, 1, "boundary", 0.5, 1.0, ("b", 0)),
        (0, 0, "interior", 0.0, 1.0, ("i", 0)),
        (0, -1, "send", 1.0, 1.25, ("msg", 1)),
        (1, -2, "recv", 1.1, 1.3, ("msg", 1)),
    ])


def test_build_trace_sorts_by_start():
    trace = _trace()
    assert [s.start for s in trace.spans] == [0.0, 0.5, 1.0, 1.1]
    assert trace.makespan() == pytest.approx(1.3)


def test_otel_document_shape_and_determinism():
    doc = to_otel(_trace(), service_name="repro-test")
    scope_spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
    assert len(scope_spans) == 4
    for span in scope_spans:
        assert len(span["spanId"]) == 16
        assert len(span["traceId"]) == 32
        assert int(span["endTimeUnixNano"]) >= int(span["startTimeUnixNano"])
    attrs = doc["resourceSpans"][0]["resource"]["attributes"]
    assert {"key": "service.name",
            "value": {"stringValue": "repro-test"}} in attrs
    # same trace, same ids: the export is reproducible
    assert to_otel(_trace(), service_name="repro-test") == doc


# ---------------------------------------------------------------------------
# Trace.validate()
# ---------------------------------------------------------------------------


def test_validate_accepts_well_formed_trace():
    _trace().validate()


def test_validate_rejects_compute_kind_on_comm_lane():
    bad = Trace()
    bad.record(0, -1, "interior", 0.0, 1.0)
    with pytest.raises(ValueError, match="comm lane"):
        bad.validate()


def test_validate_rejects_overlapping_worker_spans():
    bad = Trace()
    bad.record(0, 0, "interior", 0.0, 1.0)
    bad.record(0, 0, "interior", 0.5, 1.5)
    with pytest.raises(ValueError):
        bad.validate()


def test_debug_flag_gating(monkeypatch):
    monkeypatch.delenv(DEBUG_TRACE_ENV, raising=False)
    assert not trace_validation_enabled()
    monkeypatch.setenv(DEBUG_TRACE_ENV, "0")
    assert not trace_validation_enabled()
    monkeypatch.setenv(DEBUG_TRACE_ENV, "1")
    assert trace_validation_enabled()


def test_otel_explicit_trace_id_and_parent_span_id():
    tid = "ab" * 16
    parent = "cd" * 8
    doc = to_otel(_trace(), service_name="repro-test",
                  trace_id=tid, parent_span_id=parent)
    spans = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
    assert {s["traceId"] for s in spans} == {tid}
    assert {s["parentSpanId"] for s in spans} == {parent}
    # span ids stay deterministic under the injected trace id
    again = to_otel(_trace(), service_name="repro-test",
                    trace_id=tid, parent_span_id=parent)
    assert again == doc
    # and differ from the derived-trace-id document's ids
    derived = to_otel(_trace(), service_name="repro-test")
    dspans = derived["resourceSpans"][0]["scopeSpans"][0]["spans"]
    assert {s["spanId"] for s in dspans} != {s["spanId"] for s in spans}
    assert all("parentSpanId" not in s for s in dspans)
