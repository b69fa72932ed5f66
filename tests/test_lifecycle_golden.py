"""The lifecycle tracer's exports are pinned byte for byte.

``tests/data/lifecycle_golden_*.json`` were written by this file's
``__main__`` **at the parent commit** (33e1245, where every span was a
dict-backed dataclass whose hex ids were hashed when it was recorded
and the flight recorder copied each span into a dict).  The sequence
drives a :class:`LifecycleTracer` and its :class:`FlightRecorder` with
``time.monotonic`` replaced by a counter: service-loop spans, worker
:class:`SpanLog` spans adopted after a pickle round trip (what the
``processes`` pool's pipes do to them), a retry note, ``finish`` with
``ok`` and with ``error``, and eviction past ``max_traces``.  The
recorder's dump, the combined OTel document and the combined Chrome
events must come out exactly as they did there.
"""

from __future__ import annotations

import itertools
import json
import pathlib
import pickle
import sys
import tempfile
import time

from repro.obs.export import build_trace
from repro.obs.lifecycle import (
    FlightRecorder,
    LifecycleTracer,
    SpanLog,
    combined_events,
    combined_otel,
    format_postmortem,
    load_postmortem,
)

DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = {
    "dump": DATA / "lifecycle_golden_dump.json",
    "otel": DATA / "lifecycle_golden_otel.json",
    "events": DATA / "lifecycle_golden_events.json",
}

SIG = "0123456789abcdef" * 4


def drive(workdir: pathlib.Path) -> dict[str, bytes]:
    """The pinned sequence; ``time.monotonic`` must already count."""
    recorder = FlightRecorder(capacity=40)
    tracer = LifecycleTracer(recorder=recorder, max_traces=3)
    exec_traces = {}
    for seq in range(1, 6):
        tenant = "alice" if seq % 2 else "bob"
        tid = tracer.begin(SIG, seq, tenant=tenant)
        t = time.monotonic()
        tracer.span(tid, "admit", t, t + 0.001, seq=seq)
        tracer.span(tid, "cache_probe", t + 0.001, t + 0.002, hit=False)
        tracer.span(tid, "queued", t + 0.002, t + 0.01, status="ok",
                    depth=seq, tags=["dropped", "from", "exports"])
        log = SpanLog(origin=f"pool-processes-{seq % 2}")
        exec_id = log.allocate(tid, "execute")
        log.span(tid, "queued", t + 0.01, t + 0.012, tenant=tenant,
                 where="baton")
        log.span(tid, "ir_passes", t + 0.012, t + 0.013, tenant=tenant,
                 parent_span_id=exec_id, spec="coarsen:factor=2")
        failed = seq == 4
        if failed:
            log.span(tid, "recover", t + 0.013, t + 0.014, tenant=tenant,
                     parent_span_id=exec_id, checkpoint_step=2)
        log.span(tid, "execute", t + 0.012, t + 0.05,
                 status="error" if failed else "ok", tenant=tenant,
                 span_id=exec_id, seq=seq, worker=log.origin, warm=seq > 2,
                 **({"error": "NodeLostError('node 1 lost')"} if failed else {}))
        tracer.adopt(pickle.loads(pickle.dumps(log.spans)))
        if failed:
            now = time.monotonic()
            tracer.span(tid, "retry", now, now, status="error", attempt=1)
            recorder.note("retry", seq=seq, attempt=1, error="NodeLostError")
            tracer.finish(tid, "error")
        else:
            tracer.span(tid, "dispatch", t + 0.01, t + 0.011, batch=1)
            tracer.finish(tid, "ok")
        exec_traces[tid] = build_trace([
            (0, 0, "interior", 0.0, 0.004 * seq, ("i", seq)),
            (0, 1, "boundary", 0.004 * seq, 0.006 * seq, ("b", seq)),
            (1, -1, "send", 0.006 * seq, 0.007 * seq, ("msg", seq)),
        ])
    # an unfinished trace: eviction must still prefer the finished ones
    open_tid = tracer.begin(SIG, 99, tenant="carol")
    tracer.span(open_tid, "admit", time.monotonic(), time.monotonic())
    failing = [tid for tid in tracer.trace_ids() if tid in exec_traces]
    path = recorder.dump(workdir, reason="worker-died",
                         error="WorkerDied('boom')", trace_ids=failing[-2:],
                         extra={"attempts": 2})
    spans = tracer.all_spans()
    kept = {tid: exec_traces[tid] for tid in tracer.trace_ids()
            if tid in exec_traces}
    return {
        "dump": path.read_bytes(),
        "otel": json.dumps(combined_otel(spans, kept)).encode(),
        "events": json.dumps(combined_events(spans, kept)).encode(),
    }


def _counting_clock():
    ticks = itertools.count()
    return lambda: 1000.0 + 0.125 * next(ticks)


def test_exports_match_the_parents_bytes(monkeypatch, tmp_path):
    monkeypatch.setattr(time, "monotonic", _counting_clock())
    got = drive(tmp_path)
    for name, path in GOLDEN.items():
        assert got[name] == path.read_bytes(), f"{name} differs from {path.name}"
    text = format_postmortem(load_postmortem(tmp_path / "postmortem-worker-died-001.json"))
    assert "blame: retry" in text and "NodeLostError" in text


if __name__ == "__main__":  # regenerate: run at the commit to pin
    time.monotonic = _counting_clock()
    with tempfile.TemporaryDirectory() as scratch:
        found = drive(pathlib.Path(scratch))
    DATA.mkdir(exist_ok=True)
    for name, path in GOLDEN.items():
        path.write_bytes(found[name])
        print(f"wrote {path}", file=sys.stderr)
