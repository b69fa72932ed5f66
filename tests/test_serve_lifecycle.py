"""Lifecycle tracing through a live :class:`SolverService`: spans and
SLO histograms for real traffic, the combined timeline export, the
flight-recorder dump on terminal failure (rendered by ``repro
postmortem``), and progress()/stats() under concurrent multi-tenant
submission.
"""

from __future__ import annotations

import threading

import pytest

from repro.machine.machine import nacl
from repro.obs.lifecycle import (
    load_postmortem,
    format_postmortem,
    request_trace_id,
)
from repro.obs.slo import format_slo_report, slo_gate_metrics, slo_report
from repro.serve import (
    ServiceConfig,
    SolveRequest,
    SolverService,
    WorkerDied,
)

from .serve_helpers import _no_serve_leftovers, random_problem

pytestmark = pytest.mark.timeout(300)


def _request(problem, **overrides) -> SolveRequest:
    knobs = dict(
        impl="ca-parsec", machine=nacl(4), tile=6, steps=3,
        backend="threads", jobs=2,
    )
    knobs.update(overrides)
    return SolveRequest(problem=problem, **knobs)


def test_lifecycle_spans_and_slo_for_real_traffic(tmp_path):
    # Four distinct problems: a repeated signature would ride its
    # batch leader (or the cache) and legitimately skip "execute".
    problems = [random_problem(24, 4, seed=s) for s in (11, 12, 13, 14)]
    config = ServiceConfig(workers=2, cache=tmp_path)
    with SolverService(config) as service:
        futures = [
            service.submit(_request(problems[k], tenant=tenant))
            for k, tenant in enumerate(("alice", "bob", "alice", "bob"))
        ]
        outcomes = [f.result(timeout=120) for f in futures]
        lifecycle = service.lifecycle
        assert lifecycle is not None
        for outcome in outcomes:
            assert outcome.trace_id is not None
            assert outcome.queue_wait_s >= 0.0
            names = {s.name for s in lifecycle.spans_of(outcome.trace_id)}
            assert {"admit", "cache_probe", "queued", "dispatch",
                    "execute", "respond", "request"} <= names
        # the trace id is the deterministic hash of (signature, seq)
        assert outcomes[0].trace_id == request_trace_id(
            outcomes[0].signature, 1
        )
        # a repeat is served from the cache under a fresh trace
        repeat = service.submit(
            _request(problems[0], tenant="alice")
        ).result(timeout=120)
        assert repeat.cached and repeat.trace_id not in {
            o.trace_id for o in outcomes
        }
        names = {s.name for s in lifecycle.spans_of(repeat.trace_id)}
        assert "cache_probe" in names and "execute" not in names
        snapshot = service.metrics.snapshot()
        stats = service.stats()
    assert not _no_serve_leftovers()
    assert stats["traces"] == 5
    assert stats["recorder_events"] > 0
    report = slo_report(snapshot)
    assert set(report["tenants"]) == {"alice", "bob"}
    for tenant in ("alice", "bob"):
        lat = report["tenants"][tenant]["latency"]
        for metric in ("queue_wait", "exec", "e2e"):
            assert lat[metric]["p50"] is not None
            assert lat[metric]["p50"] <= lat[metric]["p95"]
            assert lat[metric]["p95"] <= lat[metric]["p99"]
        assert report["tenants"][tenant]["burn"] == 0.0
    text = format_slo_report(report)
    assert "alice" in text and "p95" in text
    gate = slo_gate_metrics(snapshot)
    assert {"slo_queue_wait_p95_seconds", "slo_exec_p95_seconds",
            "slo_e2e_p95_seconds", "slo_error_burn"} <= set(gate)
    assert gate["slo_error_burn"] == 0.0


def test_combined_timeline_export_from_a_live_service(tmp_path):
    problem = random_problem(24, 3, seed=21)
    config = ServiceConfig(workers=1, cache=False, trace_requests=True)
    with SolverService(config) as service:
        outcome = service.submit(_request(problem)).result(timeout=120)
        assert outcome.trace is not None  # trace_requests captures it
        written = service.write_timeline(
            chrome=tmp_path / "timeline.json",
            otel=tmp_path / "otel.json",
        )
        import json

        chrome = json.loads((tmp_path / "timeline.json").read_text())
        otel = json.loads((tmp_path / "otel.json").read_text())
    assert set(written) == {"chrome", "otel"}
    tid = outcome.trace_id
    life = otel["resourceSpans"][0]["scopeSpans"][0]["spans"]
    execute = next(s for s in life if s["name"] == "execute")
    task_blocks = otel["resourceSpans"][1:]
    assert task_blocks, "execution trace missing from the OTel export"
    for block in task_blocks:
        tasks = block["scopeSpans"][0]["spans"]
        assert {s["traceId"] for s in tasks} == {tid}
        ids = {s["spanId"] for s in tasks}
        assert ({s["parentSpanId"] for s in tasks} - ids
                == {execute["spanId"]})
    chrome_tids = {
        e["args"]["trace_id"] for e in chrome["traceEvents"]
        if e.get("ph") == "X" and "trace_id" in e.get("args", {})
    }
    assert tid in chrome_tids  # stable id across both formats
    assert not _no_serve_leftovers()


def test_lifecycle_disabled_turns_everything_off(tmp_path):
    problem = random_problem(24, 3, seed=22)
    config = ServiceConfig(workers=1, cache=False, lifecycle=False)
    with SolverService(config) as service:
        outcome = service.submit(_request(problem)).result(timeout=120)
        assert outcome.trace_id is None
        assert service.lifecycle is None and service.recorder is None
        assert "traces" not in service.stats()
        with pytest.raises(Exception):
            service.write_timeline(chrome=tmp_path / "x.json")
        snapshot = service.metrics.snapshot()
    assert "slo_e2e_seconds" not in snapshot.data


def test_kill_fault_dumps_a_postmortem_the_cli_renders(tmp_path, capsys):
    problem = random_problem(24, 6, seed=23)
    config = ServiceConfig(
        workers=1, cache=False,
        checkpoint_dir=tmp_path / "ckpt", dump_dir=tmp_path / "dumps",
    )
    with SolverService(config) as service:
        request = SolveRequest(
            problem=problem, impl="base-parsec", machine=nacl(4), tile=6,
            backend="threads", jobs=2, tenant="chaos",
            chaos_plan="kill:node=1,step=1", retries=0,
        )
        future = service.submit(request)
        with pytest.raises(WorkerDied):
            future.result(timeout=120)
        stats = service.stats()
        snapshot = service.metrics.snapshot()
    assert not _no_serve_leftovers()
    assert len(stats["postmortems"]) == 1
    dump_path = stats["postmortems"][0]
    doc = load_postmortem(dump_path)
    assert doc["reason"] == "worker-died"
    assert doc["trace_ids"], "dump must name the failing trace"
    text = format_postmortem(doc)
    assert "blame: execute" in text and "NodeLostError" in text
    # the CLI face renders the same dump
    from repro.cli import main

    assert main(["postmortem", str(dump_path)]) == 0
    out = capsys.readouterr().out
    assert "failing span chain" in out and "blame: execute" in out
    # the error burned the chaos tenant's budget
    report = slo_report(snapshot)
    assert report["tenants"]["chaos"]["errors"] == 1
    assert report["tenants"]["chaos"]["burn"] > 1.0


def test_retry_records_retry_span_and_outcome_counts(tmp_path):
    problem = random_problem(24, 6, seed=24)
    config = ServiceConfig(
        workers=1, cache=False, retry_budget=2,
        checkpoint_dir=tmp_path / "ckpt",
    )
    with SolverService(config) as service:
        # jobs=1 keeps the priority order exact: every sweep-3 tile is
        # checkpointed before the first sweep-3 task can fire the kill,
        # so the retry deterministically *resumes* instead of restarting
        # (the recipe test_serve_service.py pins for the same reason).
        request = SolveRequest(
            problem=problem, impl="ca-parsec", machine=nacl(4), tile=6,
            steps=3, backend="threads", jobs=1, tenant="chaos",
            chaos_plan="kill:node=3,step=1s",
        )
        outcome = service.submit(request).result(timeout=120)
        lifecycle = service.lifecycle
        assert outcome.recovered and outcome.retries == 1
        assert outcome.trace_id is not None
        spans = lifecycle.spans_of(outcome.trace_id)
        names = [s.name for s in spans]
        assert "retry" in names
        assert names.count("queued") == 2  # original stay + re-queue
        assert names.count("execute") == 2  # failed + resumed attempt
        recover = [s for s in spans if s.name == "recover"]
        assert recover and recover[0].attrs["checkpoint_step"] > 0
        # queue_wait accumulates across both stays
        queued = [s for s in spans if s.name == "queued"]
        assert outcome.queue_wait_s == pytest.approx(
            sum(s.duration for s in queued), rel=0.2, abs=0.05
        )
        # a recovered request dumps nothing: the failure was not terminal
        assert service.stats()["postmortems"] == []
    assert not _no_serve_leftovers()


def test_progress_and_stats_under_concurrent_multitenant_submit(tmp_path):
    problems = [random_problem(24, 3, seed=s) for s in (31, 32, 33)]
    config = ServiceConfig(workers=2, cache=tmp_path, tenant_limit=None)
    stop = threading.Event()
    seen: list[dict] = []
    errors: list[BaseException] = []

    def hammer(service):
        while not stop.is_set():
            try:
                p = service.progress()
                s = service.stats()
            except BaseException as exc:  # noqa: BLE001 - the test's point
                errors.append(exc)
                return
            assert 0 <= p["done"] <= p["total"]
            assert s["finished"] <= s["submitted"]
            seen.append(p)

    with SolverService(config) as service:
        readers = [
            threading.Thread(target=hammer, args=(service,), daemon=True)
            for _ in range(3)
        ]
        for t in readers:
            t.start()
        futures = []
        for wave in range(2):
            for i, tenant in enumerate(("alice", "bob", "carol")):
                futures.append(service.submit(_request(
                    problems[(wave + i) % 3], tenant=tenant,
                )))
        outcomes = [f.result(timeout=120) for f in futures]
        stop.set()
        for t in readers:
            t.join(timeout=10)
        stats = service.stats()
    assert not errors
    assert len(outcomes) == 6
    assert stats["submitted"] == 6 and stats["finished"] == 6
    assert stats["traces"] == 6
    assert len(seen) > 0
    assert not _no_serve_leftovers()


def test_max_postmortems_caps_the_dump_directory(tmp_path):
    dumps = tmp_path / "dumps"
    config = ServiceConfig(workers=1, cache=False, dump_dir=dumps,
                           max_postmortems=2)
    with SolverService(config) as service:
        assert service.recorder.max_dumps == 2
        service.recorder.note("tick")
        for _ in range(5):
            service.recorder.dump(dumps, reason="flood")
    assert not _no_serve_leftovers()
    survivors = sorted(p.name for p in dumps.glob("postmortem-*.json"))
    assert survivors == ["postmortem-flood-004.json",
                         "postmortem-flood-005.json"]
    # None lifts the cap (the historical keep-everything behaviour)
    uncapped = ServiceConfig(workers=1, cache=False,
                             max_postmortems=None)
    with SolverService(uncapped) as service:
        assert service.recorder.max_dumps is None
    assert not _no_serve_leftovers()
