"""Chrome trace-event export."""

import json

import pytest

from repro.obs import export
from repro.runtime.trace import Trace


def sample_trace():
    t = Trace()
    t.record(0, 0, "interior", 0.0, 1e-3, label=("st", 1, 1, 0))
    t.record(0, -1, "send", 0.5e-3, 0.6e-3)
    t.record(1, 2, "boundary", 0.0, 2e-3)
    return t


def test_events_complete_and_typed():
    events = export.to_events(sample_trace())
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == 3
    interior = next(e for e in spans if e["name"] == "interior")
    assert interior["pid"] == 0 and interior["tid"] == 0
    assert interior["dur"] == pytest.approx(1e3)  # 1 ms in us
    assert interior["args"]["label"] == repr(("st", 1, 1, 0))
    send = next(e for e in spans if e["name"] == "send")
    assert send["tid"] == 9999 and send["cat"] == "comm"


def test_metadata_names_processes_and_threads():
    events = export.to_events(sample_trace())
    meta = [e for e in events if e["ph"] == "M"]
    thread_names = {(e["pid"], e["tid"]): e["args"]["name"]
                    for e in meta if e["name"] == "thread_name"}
    assert thread_names[(0, 9999)] == "comm"
    assert thread_names[(1, 2)] == "worker 2"
    process_names = {e["pid"] for e in meta if e["name"] == "process_name"}
    assert process_names == {0, 1}


def test_time_scale():
    base = export.to_events(sample_trace())
    scaled = export.to_events(sample_trace(), time_scale=10.0)
    b = next(e for e in base if e.get("name") == "boundary")
    s = next(e for e in scaled if e.get("name") == "boundary")
    assert s["dur"] == pytest.approx(10 * b["dur"])
    with pytest.raises(ValueError):
        export.to_events(sample_trace(), time_scale=0)


def test_dumps_and_write_roundtrip(tmp_path):
    path = tmp_path / "trace.json"
    export.write(sample_trace(), str(path))
    doc = json.loads(path.read_text())
    assert doc["displayTimeUnit"] == "ms"
    assert any(e.get("name") == "interior" for e in doc["traceEvents"])
    assert json.loads(export.dumps(sample_trace())) == doc


def test_engine_trace_exports(machine4, small_problem):
    from repro.core.runner import run

    res = run(small_problem, impl="ca-parsec", machine=machine4, tile=6,
              steps=3, mode="simulate", trace=True)
    doc = json.loads(export.dumps(res.trace))
    kinds = {e.get("name") for e in doc["traceEvents"] if e["ph"] == "X"}
    assert {"interior", "boundary", "init", "send", "recv"} <= kinds
