"""Telemetry sampling and alerting through a live
:class:`SolverService`: the zero-cost contract when sampling is off,
the sampler feeding the time-series store under real traffic, the
node-lost alert firing on a chaos kill and resolving after the retry
recovers, the JSONL alert log, and postmortem retention.
"""

from __future__ import annotations

import json
import threading

import pytest

from repro.machine.machine import nacl
from repro.obs.alerts import AlertRule
from repro.serve import (
    ServeError,
    ServiceConfig,
    SolveRequest,
    SolverService,
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


def _node_lost_rule(window_s: float = 1.0) -> AlertRule:
    return AlertRule(
        name="node-lost", kind="threshold",
        metric="serve_node_lost_total", signal="increase",
        window_s=window_s, op=">", threshold=0.0,
    )


def test_sampling_disabled_builds_nothing(tmp_path):
    problem = random_problem(24, 3, seed=41)
    config = ServiceConfig(workers=1, cache=tmp_path)  # the default
    with SolverService(config) as service:
        assert service.series is None and service.alerts is None
        service.submit(_request(problem)).result(timeout=120)
        stats = service.stats()
        with pytest.raises(ServeError):
            service.sample_now()
    assert not _no_serve_leftovers()
    assert "samples" not in stats and "alerts" not in stats


def after_a_sample(service, done, timeout: float) -> bool:
    """Wait until ``done()`` holds, re-checked after every sample the
    service's sampler lands (its alert pass included) -- woken by the
    sampler's own ``on_sample`` callback, not by polling."""
    landed, inner = threading.Condition(), service._sampler.on_sample

    def notify(t):
        inner(t)
        with landed:
            landed.notify_all()

    service._sampler.on_sample = notify
    with landed:
        return landed.wait_for(done, timeout)


def test_sampler_feeds_the_store_under_real_traffic(tmp_path):
    problems = [random_problem(24, 3, seed=s) for s in (42, 43)]
    config = ServiceConfig(workers=2, cache=tmp_path,
                           sampling_interval_s=0.05)
    with SolverService(config) as service:
        futures = [
            service.submit(_request(p, tenant=t))
            for p, t in zip(problems, ("alice", "bob"))
        ]
        for f in futures:
            f.result(timeout=120)
        # small solves can finish before the first 50 ms tick: wait
        # for the sampler thread to land a few samples of its own
        assert after_a_sample(service, lambda: service.series.samples >= 3, 30)
        stats = service.stats()
        store = service.series
    assert not _no_serve_leftovers()
    assert stats["samples"] >= 2
    assert "alerts" not in stats  # sampling without rules: no engine
    # stop() took a terminal sample: the final counter state landed
    assert store.latest("slo_requests_total") == 2.0
    assert store.increase("slo_requests_total", 300.0,
                          tenant="alice", status="ok") == 1.0
    # live progress() fields ride along as gauges
    assert store.latest("live_workers") == 2.0
    assert store.kind("serve_queue_depth") == "gauge"


def test_node_lost_alert_fires_and_resolves_after_recovery(tmp_path):
    problem = random_problem(24, 6, seed=44)
    log = tmp_path / "alerts.jsonl"
    config = ServiceConfig(
        workers=1, cache=False, retry_budget=2,
        checkpoint_dir=tmp_path / "ckpt", dump_dir=tmp_path / "dumps",
        sampling_interval_s=0.05, alert_rules=[_node_lost_rule()],
        alert_log=log,
    )
    with SolverService(config) as service:
        # the deterministic resume recipe test_serve_lifecycle.py pins:
        # jobs=1 so every sweep-3 tile checkpoints before the kill
        request = SolveRequest(
            problem=problem, impl="ca-parsec", machine=nacl(4), tile=6,
            steps=3, backend="threads", jobs=1, tenant="chaos",
            chaos_plan="kill:node=3,step=1s",
        )
        outcome = service.submit(request).result(timeout=120)
        assert outcome.recovered and outcome.retries == 1
        engine = service.alerts
        # the lost attempt bumped the counter; the next samples must
        # fire the alert, then resolve it once the window drains
        assert after_a_sample(service, lambda: any(
            e["to"] == "resolved" for e in engine.transitions), 60)
        path = [(e["rule"], e["to"]) for e in engine.transitions]
        assert ("node-lost", "firing") in path
        assert ("node-lost", "resolved") in path
        # firing dumped the flight recorder, linked into stats()
        (dump,) = engine.dumps
        assert "alert-node-lost" in dump.name
        assert str(dump) in service.stats()["postmortems"]
        doc = json.loads(dump.read_text())
        assert doc["alert"]["rule"] == "node-lost"
        assert doc["events"], "the ring travelled with the alert"
        stats = service.stats()
        assert stats["alerts"]["transitions"] >= 2
        assert stats["alerts"]["active"] == []
    assert not _no_serve_leftovers()
    # the JSONL sink recorded the full lifecycle, in order
    events = [json.loads(line) for line in log.read_text().splitlines()]
    assert [e["to"] for e in events if e["rule"] == "node-lost"] == [
        "firing", "resolved",
    ]


def test_rules_load_from_a_file_path(tmp_path):
    rules = tmp_path / "rules.json"
    rules.write_text(json.dumps({"rules": [{
        "name": "node-lost", "kind": "threshold",
        "metric": "serve_node_lost_total", "signal": "increase",
        "window_s": 1.0, "op": ">", "threshold": 0.0,
    }]}))
    config = ServiceConfig(workers=1, cache=False,
                           sampling_interval_s=0.05, alert_rules=rules)
    with SolverService(config) as service:
        assert [r.name for r in service.alerts.rules] == ["node-lost"]
        service.sample_now()
        assert service.alerts.state("node-lost") == "inactive"
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
