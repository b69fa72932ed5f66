"""Wall-clock traces from the threaded backend: schema compatibility
with the simulator's trace tooling and Perfetto-loadable export."""

from __future__ import annotations

import json

import pytest

from repro.analysis.gantt import render_gantt
from repro.analysis.occupancy import occupancy_report
from repro.core.runner import run
from repro.exec.wallclock_trace import HOST_NODE, WallClockRecorder
from repro.machine.machine import nacl
from repro.obs import export
from repro.runtime.trace import Trace
from tests.conftest import random_problem


@pytest.fixture(scope="module")
def threads_result():
    problem = random_problem(n=24, iterations=6, seed=5)
    return run(problem, impl="ca-parsec", machine=nacl(4), tile=6, steps=2,
               backend="threads", jobs=3, trace=True)


def test_trace_is_standard_schema(threads_result):
    trace = threads_result.trace
    assert isinstance(trace, Trace)
    assert len(trace) == threads_result.engine.tasks_run
    # All spans live on the host node, one lane per worker thread.
    assert {s.node for s in trace} == {HOST_NODE}
    assert {s.worker for s in trace} <= set(range(3))
    assert trace.kinds() <= {"init", "interior", "boundary"}
    assert trace.makespan() <= threads_result.elapsed + 1e-6


def test_trace_no_overlap_per_worker(threads_result):
    """A worker thread is a serial resource: its spans must not
    overlap.  This is the engine's own self-check applied to measured
    (wall-clock) data."""
    threads_result.trace.validate_no_overlap()


def test_existing_analyses_work_on_wallclock_trace(threads_result):
    rep = occupancy_report(threads_result.trace, HOST_NODE, workers=3)
    assert 0 < rep.occupancy <= 1
    assert rep.busy_s > 0
    chart = render_gantt(threads_result.trace, HOST_NODE, width=40,
                         include_comm=False)
    assert chart.strip()  # rendered rows exist


def test_chrome_trace_valid_perfetto_json(tmp_path, threads_result):
    """The exported document must load as Perfetto-style trace-event
    JSON with non-overlapping complete events per (pid, tid) lane."""
    path = tmp_path / "threads.json"
    export.write(threads_result.trace, str(path))
    doc = json.loads(path.read_text())

    events = doc["traceEvents"]
    assert doc["displayTimeUnit"] == "ms"
    spans = [e for e in events if e["ph"] == "X"]
    assert len(spans) == threads_result.engine.tasks_run
    for e in spans:
        assert e["ts"] >= 0 and e["dur"] >= 0
        assert e["pid"] == HOST_NODE
        assert isinstance(e["tid"], int)

    # Per-worker (pid, tid) lanes: intervals must not overlap.
    lanes: dict[tuple, list[tuple[float, float]]] = {}
    for e in spans:
        lanes.setdefault((e["pid"], e["tid"]), []).append((e["ts"], e["ts"] + e["dur"]))
    assert lanes  # at least one worker lane
    for intervals in lanes.values():
        intervals.sort()
        for (s0, e0), (s1, _e1) in zip(intervals, intervals[1:]):
            assert s1 >= e0 - 1e-9, f"overlap: {(s0, e0)} then {(s1, _e1)}"

    # Thread metadata names every worker lane.
    names = {(e["pid"], e["tid"]): e["args"]["name"]
             for e in events if e["ph"] == "M" and e["name"] == "thread_name"}
    for lane in lanes:
        assert lane in names and names[lane].startswith("worker")


def test_recorder_normalises_to_run_start():
    rec = WallClockRecorder(jobs=2)
    rec.start()
    a0, a1 = rec.now(), rec.now()
    rec.record(0, "k", a0, a1, label="x")
    rec.record(1, "k", a0, a1)
    trace = rec.to_trace()
    assert len(trace) == 2
    for span in trace:
        assert span.start >= 0  # origin-relative
    busy = rec.busy_per_worker()
    assert set(busy) == {0, 1}
    assert busy[0] == pytest.approx(a1 - a0)
