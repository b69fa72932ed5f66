"""Request lifecycle tracing (``repro.obs.lifecycle``) in isolation:
deterministic ids, the tracer's span/SLO fold, the flight-recorder
ring, postmortem dumps, and the combined timeline exports that hang
execution-level task spans under their lifecycle ``execute`` span.
"""

from __future__ import annotations

import json

import pytest

from repro.obs.lifecycle import (
    ERROR_STATUSES,
    FlightRecorder,
    LifecycleTracer,
    SpanLog,
    combined_events,
    combined_otel,
    format_postmortem,
    lifecycle_events,
    load_postmortem,
    request_trace_id,
    root_span_id,
    span_id_for,
    write_timeline,
)
from repro.obs.metrics import MetricRegistry
from repro.obs.export import build_trace

SIG = "a" * 64


# -- ids -----------------------------------------------------------------


def test_ids_are_deterministic_hex_of_the_right_width():
    tid = request_trace_id(SIG, 7)
    assert tid == request_trace_id(SIG, 7)
    assert len(tid) == 32 and int(tid, 16) >= 0
    assert request_trace_id(SIG, 8) != tid
    root = root_span_id(tid)
    assert len(root) == 16 and root == root_span_id(tid)
    sid = span_id_for(tid, "svc", "admit", 0)
    assert len(sid) == 16
    assert sid != span_id_for(tid, "svc", "admit", 1)
    # origin namespacing: a worker's counter never collides with the
    # service loop's
    assert sid != span_id_for(tid, "pool-threads-1", "admit", 0)


# -- the tracer ----------------------------------------------------------


def test_tracer_spans_parent_under_root_and_fold_slo_histograms():
    reg = MetricRegistry()
    tracer = LifecycleTracer(metrics=reg)
    tid = tracer.begin(SIG, 1, tenant="alice", t_admit=10.0)
    tracer.span(tid, "admit", 10.0, 10.001, seq=1)
    tracer.span(tid, "queued", 10.001, 10.101)
    tracer.span(tid, "execute", 10.2, 10.7, worker="w0")
    summary = tracer.finish(tid, "ok", now=11.0)
    assert summary["tenant"] == "alice"
    assert summary["queue_wait_s"] == pytest.approx(0.1)
    assert summary["exec_s"] == pytest.approx(0.5)
    assert summary["e2e_s"] == pytest.approx(1.0)
    spans = tracer.spans_of(tid)
    names = [s.name for s in spans]
    assert names == ["admit", "queued", "execute", "respond", "request"]
    root = root_span_id(tid)
    by_name = {s.name: s for s in spans}
    assert by_name["request"].span_id == root
    assert by_name["request"].parent_span_id is None
    for name in ("admit", "queued", "execute", "respond"):
        assert by_name[name].parent_span_id == root
    snap = reg.snapshot()
    h = snap.data["slo_e2e_seconds"]["values"][(("tenant", "alice"),)]
    assert h["count"] == 1 and h["sum"] == pytest.approx(1.0)
    assert snap.counter("slo_requests_total") == 1
    # idempotent: a second finish neither re-observes nor errors
    assert tracer.finish(tid, "error") is None
    assert reg.snapshot().counter("slo_requests_total") == 1


def test_tracer_error_statuses_mark_terminal_spans():
    tracer = LifecycleTracer()
    for status in ERROR_STATUSES:
        tid = tracer.begin(SIG, hash(status) % 1000, t_admit=0.0)
        tracer.finish(tid, status, now=1.0)
        by_name = {s.name: s for s in tracer.spans_of(tid)}
        assert by_name["request"].status == "error"
        assert by_name["respond"].attrs["outcome"] == status


def test_tracer_eviction_prefers_done_traces_and_bounds_memory():
    tracer = LifecycleTracer(max_traces=4)
    open_tid = tracer.begin(SIG, 0)
    for i in range(1, 10):
        tid = tracer.begin(SIG, i, t_admit=0.0)
        tracer.finish(tid, "ok", now=1.0)
    assert len(tracer) <= 4
    # the in-flight trace survived while finished ones were evicted
    assert open_tid in tracer.trace_ids()


def test_worker_span_log_allocate_then_adopt():
    log = SpanLog("worker-3")
    tid = request_trace_id(SIG, 5)
    exec_id = log.allocate(tid, "execute")
    log.span(tid, "recover", 1.0, 1.2, parent_span_id=exec_id)
    log.span(tid, "execute", 1.0, 2.0, span_id=exec_id, worker="worker-3")
    tracer = LifecycleTracer()
    tracer.begin(SIG, 5, t_admit=0.5)
    tracer.adopt(log.spans)
    by_name = {s.name: s for s in tracer.spans_of(tid)}
    assert by_name["execute"].span_id == exec_id
    assert by_name["recover"].parent_span_id == exec_id


# -- the flight recorder -------------------------------------------------


def test_recorder_ring_is_bounded_and_dump_round_trips(tmp_path):
    rec = FlightRecorder(capacity=8)
    tracer = LifecycleTracer(recorder=rec)
    for i in range(5):
        tid = tracer.begin(SIG, i, t_admit=0.0)
        tracer.span(tid, "admit", 0.0, 0.1)
        tracer.finish(tid, "ok", now=1.0)
    assert len(rec) == 8  # 5 * 3 events, clamped at capacity
    path = rec.dump(tmp_path, reason="worker-died",
                    error="WorkerDied('boom')", trace_ids=(tid,),
                    extra={"attempts": 2})
    doc = load_postmortem(path)
    assert doc["reason"] == "worker-died"
    assert doc["trace_ids"] == [tid]
    assert doc["attempts"] == 2
    assert len(doc["events"]) == 8
    # a second dump gets a fresh ordinal, never clobbers the first
    again = rec.dump(tmp_path, reason="worker-died")
    assert again != path and again.exists() and path.exists()


def test_recorder_ring_wraparound_keeps_newest_events():
    rec = FlightRecorder(capacity=4)
    for i in range(10):
        rec.note("tick", seq=i)
    assert len(rec) == 4
    # the ring holds exactly the last `capacity` events, in order
    assert [e["seq"] for e in rec.events()] == [6, 7, 8, 9]
    rec.note("tick", seq=10)
    assert [e["seq"] for e in rec.events()] == [7, 8, 9, 10]


def test_recorder_concurrent_record_and_dump(tmp_path):
    import threading

    rec = FlightRecorder(capacity=256)
    stop = threading.Event()
    torn: list[str] = []

    def writer(worker: int) -> None:
        seq = 0
        while not stop.is_set():
            rec.note("tick", worker=worker, seq=seq)
            seq += 1

    threads = [threading.Thread(target=writer, args=(w,)) for w in range(3)]
    for t in threads:
        t.start()
    try:
        paths = [rec.dump(tmp_path, reason="race") for _ in range(5)]
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert len({p.name for p in paths}) == 5  # fresh ordinal every time
    for path in paths:
        doc = load_postmortem(path)  # atomic: never a torn file
        for event in doc["events"]:
            # every event is whole -- both fields or it was torn
            if event["event"] == "tick" and (
                "worker" not in event or "seq" not in event
            ):
                torn.append(str(event))
    assert not torn
    # no stray temp files survive the dumps
    assert not list(tmp_path.glob(".pm-*"))


def test_recorder_dump_retention_prunes_oldest(tmp_path):
    rec = FlightRecorder(capacity=8, max_dumps=3)
    rec.note("tick")
    paths = [rec.dump(tmp_path, reason="flood") for _ in range(6)]
    survivors = sorted(p.name for p in tmp_path.glob("postmortem-*.json"))
    assert survivors == sorted(p.name for p in paths[-3:])
    # uncapped recorder keeps everything (the historical behaviour)
    rec2 = FlightRecorder(capacity=8)
    for _ in range(4):
        rec2.dump(tmp_path / "uncapped", reason="flood")
    assert len(list((tmp_path / "uncapped").glob("*.json"))) == 4
    with pytest.raises(ValueError):
        FlightRecorder(max_dumps=0)


def test_recorders_sharing_a_directory_keep_each_others_dumps(tmp_path):
    import threading

    # Two services on one host, or a restarted one, share the default
    # dump directory: no recorder may replace another one's postmortem.
    a, b = FlightRecorder(capacity=8), FlightRecorder(capacity=8)
    a.note("from-a")
    b.note("from-b")
    path_a = a.dump(tmp_path, reason="failure")
    path_b = b.dump(tmp_path, reason="failure")
    assert sorted(tmp_path.glob("postmortem-*.json")) == sorted({path_a, path_b})
    assert [e["event"] for e in load_postmortem(path_a)["events"]] == ["from-a"]
    assert [e["event"] for e in load_postmortem(path_b)["events"]] == ["from-b"]
    # racing writers claim distinct names too, and leave no temp file
    racers = [FlightRecorder(capacity=8) for _ in range(4)]
    for i, rec in enumerate(racers):
        rec.note(f"racer-{i}")
    paths: list = []
    threads = [
        threading.Thread(target=lambda rec=rec: paths.extend(
            rec.dump(tmp_path / "race", reason="failure") for _ in range(10)))
        for rec in racers
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(paths)) == 40
    assert sorted(p.name for p in (tmp_path / "race").iterdir()) == sorted(
        p.name for p in paths)
    for i in range(4):
        own = [p for p in paths
               if load_postmortem(p)["events"][0]["event"] == f"racer-{i}"]
        assert len(own) == 10


def test_load_postmortem_rejects_foreign_documents(tmp_path):
    bogus = tmp_path / "x.json"
    bogus.write_text(json.dumps({"kind": "something-else"}))
    with pytest.raises(ValueError):
        load_postmortem(bogus)


def test_format_postmortem_blames_the_failing_span(tmp_path):
    rec = FlightRecorder()
    tracer = LifecycleTracer(recorder=rec)
    tid = tracer.begin(SIG, 1, tenant="chaos", t_admit=0.0)
    tracer.span(tid, "queued", 0.0, 0.05)
    tracer.span(tid, "execute", 0.1, 0.6, status="error",
                error="NodeLostError('node 1 lost')")
    tracer.finish(tid, "error", now=0.7)
    path = rec.dump(tmp_path, reason="node-lost", trace_ids=(tid,))
    text = format_postmortem(load_postmortem(path))
    assert "reason=node-lost" in text
    assert f"trace {tid[:16]}" in text
    assert "tenant=chaos" in text
    assert "blame: execute" in text
    assert "NodeLostError" in text


# -- combined exports (the acceptance shape) -----------------------------


def _traced_request(tracer, seq):
    tid = tracer.begin(SIG, seq, tenant="alice", t_admit=0.0)
    tracer.span(tid, "admit", 0.0, 0.01)
    tracer.span(tid, "queued", 0.01, 0.11)
    tracer.span(tid, "execute", 0.2, 1.2, worker="w0")
    tracer.finish(tid, "ok", now=1.3)
    trace = build_trace([
        (0, 0, "interior", 0.0, 0.5, ("i", 0)),
        (0, 1, "boundary", 0.5, 0.9, ("b", 0)),
        (0, -1, "send", 0.9, 1.0, ("msg", 1)),
    ])
    return tid, trace


def test_combined_otel_hangs_exec_spans_under_the_execute_span():
    tracer = LifecycleTracer()
    tid, trace = _traced_request(tracer, 1)
    spans = tracer.all_spans()
    doc = combined_otel(spans, {tid: trace})
    life = doc["resourceSpans"][0]["scopeSpans"][0]["spans"]
    exec_span = next(s for s in life if s["name"] == "execute")
    assert {s["traceId"] for s in life} == {tid}
    # the execution-level task spans ride the SAME trace id and parent
    # under the lifecycle execute span
    task_blocks = doc["resourceSpans"][1:]
    assert task_blocks
    for block in task_blocks:
        tasks = block["scopeSpans"][0]["spans"]
        assert {s["traceId"] for s in tasks} == {tid}
        ids = {s["spanId"] for s in tasks}
        roots = {s["parentSpanId"] for s in tasks} - ids
        assert roots == {exec_span["spanId"]}
        # exec timestamps land inside the execute span's window
        for s in tasks:
            assert int(s["startTimeUnixNano"]) >= int(
                exec_span["startTimeUnixNano"]
            )


def test_combined_chrome_and_otel_share_trace_ids(tmp_path):
    tracer = LifecycleTracer()
    tid, trace = _traced_request(tracer, 2)
    spans = tracer.all_spans()
    events = combined_events(spans, {tid: trace})
    chrome_tids = {
        e["args"]["trace_id"] for e in events
        if e.get("ph") == "X" and "trace_id" in e.get("args", {})
    }
    otel = combined_otel(spans, {tid: trace})
    otel_tids = {
        s["traceId"]
        for block in otel["resourceSpans"]
        for s in block["scopeSpans"][0]["spans"]
    }
    assert chrome_tids == otel_tids == {tid}
    # every task event was shifted onto the execute span's clock
    exec_ts = next(
        e["ts"] for e in events
        if e.get("ph") == "X" and e["name"] == "execute"
    )
    task_events = [e for e in events
                   if e.get("ph") == "X" and e.get("cat") != "lifecycle"]
    assert task_events
    assert all(e["ts"] >= exec_ts for e in task_events)
    written = write_timeline(
        spans, {tid: trace},
        chrome_path=tmp_path / "t.json", otel_path=tmp_path / "o.json",
    )
    assert set(written) == {"chrome", "otel"}
    chrome_doc = json.loads((tmp_path / "t.json").read_text())
    assert chrome_doc["traceEvents"]
    otel_doc = json.loads((tmp_path / "o.json").read_text())
    assert otel_doc["resourceSpans"]


def test_lifecycle_events_one_lane_per_trace():
    tracer = LifecycleTracer()
    for seq in (1, 2):
        tid = tracer.begin(SIG, seq, t_admit=0.0)
        tracer.span(tid, "admit", 0.0, 0.01)
        tracer.finish(tid, "ok", now=0.1)
    events = lifecycle_events(tracer.all_spans())
    lanes = {e["tid"] for e in events if e.get("ph") == "X"}
    assert len(lanes) == 2
    names = [e["args"]["name"] for e in events
             if e.get("ph") == "M" and e["name"] == "thread_name"]
    assert len(names) == 2
