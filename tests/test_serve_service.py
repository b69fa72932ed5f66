"""The solver service end to end (``repro.serve.service``).

Covers the serving smoke the CI job runs -- two tenants, mixed
workload, cache hit on repeat with *zero* task executions, clean
shutdown with no orphan threads or processes -- plus the deadline and
admission-control behaviours at the service boundary.
"""

from __future__ import annotations

import gc
import sys
import threading
import time
import weakref
from collections import Counter
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.runner import run
from repro.exec import fork_available
from repro.machine.machine import nacl
from repro.serve import (
    DeadlineExpired,
    QueueFullError,
    ResultCache,
    ServiceClosed,
    ServiceConfig,
    SolverClient,
    SolverService,
)

from .conftest import join_all
from .serve_helpers import (
    GatedPayloadWrites,
    LoadSpy,
    _no_serve_leftovers,
    _request,
    solve_finished,
    gated_problem,
    random_problem,
)

pytestmark = pytest.mark.timeout(300)


# -- the smoke (mirrors the CI serve-smoke job) --------------------------


def test_smoke_two_tenants_cache_hit_and_clean_shutdown(tmp_path):
    problems = [random_problem(24, 4, seed=s) for s in (1, 2)]
    direct = [
        run(p, impl="ca-parsec", machine=nacl(4), tile=6, steps=3,
            mode="execute", backend="threads", jobs=2).grid
        for p in problems
    ]
    service = SolverService(ServiceConfig(workers=2, cache=tmp_path))
    with service:
        alice = SolverClient(service, tenant="alice")
        bob = SolverClient(service, tenant="bob")
        futures = [alice.submit(problems[0]), bob.submit(problems[1]),
                   alice.submit(problems[1]), bob.submit(problems[0])]
        outcomes = [f.result(timeout=120) for f in futures]
        for outcome, grid in zip(outcomes, (direct[0], direct[1],
                                            direct[1], direct[0])):
            assert np.array_equal(outcome.grid, grid)
        assert {o.tenant for o in outcomes} == {"alice", "bob"}

        # Repeat submissions: served from the cache, zero tasks run.
        before = service.metrics.snapshot().counter("tasks_executed_total")
        repeat = alice.solve(problems[0])
        assert repeat.cached
        assert np.array_equal(repeat.grid, direct[0])
        after = service.metrics.snapshot().counter("tasks_executed_total")
        assert after == before  # the acceptance criterion, literally

        snap = service.metrics.snapshot()
        assert snap.counter("serve_cache_hits_total") >= 1
        assert snap.counter("serve_jobs_submitted_total") == 5
        stats = service.stats()
        assert stats["submitted"] == 5 and stats["finished"] == 5
    # clean shutdown: no orphan runner/reaper threads, no children
    assert _no_serve_leftovers() == []
    with pytest.raises(ServiceClosed):
        service.submit(_request(problems[0]))


@pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
def test_processes_pool_serves_and_leaves_no_orphans():
    problem = random_problem(24, 4, seed=3)
    direct = run(problem, impl="ca-parsec", machine=nacl(4), tile=6,
                 steps=3, mode="execute", backend="threads", jobs=2).grid
    with SolverService(ServiceConfig(pool="processes", workers=1,
                                     cache=False)) as service:
        client = SolverClient(service, tenant="alice")
        outcomes = [f.result(timeout=120)
                    for f in client.map([problem, problem])]
        for outcome in outcomes:
            assert np.array_equal(outcome.grid, direct)
        # the child's task counters merged back into the service registry
        assert service.metrics.snapshot().counter("tasks_executed_total") > 0
    assert _no_serve_leftovers(timeout=10.0) == []


# -- admission control at the service boundary ---------------------------


def test_queue_full_raises_synchronously_and_fast():
    """White box: an accepting service whose runners never drain, so
    depth-based admission is deterministic."""
    service = SolverService(ServiceConfig(workers=1, queue_depth=3,
                                          tenant_limit=None, cache=False))
    service._started = True  # accept submissions, run nothing
    try:
        futures = [
            service.submit(_request(random_problem(24, 2, seed=s)))
            for s in range(3)
        ]
        t0 = time.monotonic()
        with pytest.raises(QueueFullError):
            service.submit(_request(random_problem(24, 2, seed=9)))
        assert time.monotonic() - t0 < 0.1
        snap = service.metrics.snapshot()
        assert snap.counter("serve_admission_rejects_total") == 1
        labelled = snap.labelled("serve_jobs_completed_total")
        statuses = {dict(ls)["status"]: v for ls, v in labelled.items()}
        assert statuses.get("rejected") == 1
    finally:
        service.stop()
    for future in futures:
        with pytest.raises(ServiceClosed):
            future.result(timeout=0)


def test_submit_before_start_raises():
    service = SolverService(ServiceConfig(cache=False))
    with pytest.raises(ServiceClosed):
        service.submit(_request(random_problem(24, 2)))


# -- deadlines (property iii at the service boundary) --------------------


@given(deadlines=st.lists(
    st.floats(min_value=0.001, max_value=0.01), min_size=1, max_size=3,
))
@settings(max_examples=5, deadline=None)
def test_expired_jobs_cancelled_and_workers_reclaimed(deadlines):
    """Whatever tiny deadlines arrive, every such job fails with the
    typed error and the service keeps serving afterwards (workers
    reclaimed, capacity intact).  The blocker is parked until every
    doomed job has raised: however fast a solve is, none of them can
    reach the runner before its deadline."""
    config = ServiceConfig(workers=1, cache=False)
    with SolverService(config) as service:
        gate = gated_problem()
        blocker = service.submit(_request(gate, jobs=1))
        assert gate.init.entered.wait(30)
        doomed = [
            service.submit(_request(random_problem(24, 2, seed=2 + i),
                                    deadline_s=dl))
            for i, dl in enumerate(deadlines)
        ]
        for future in doomed:
            with pytest.raises(DeadlineExpired):
                future.result(timeout=30)
        gate.init.release.set()
        blocker.result(timeout=120)
        # capacity survived: a fresh job still completes
        fresh = service.submit(_request(random_problem(24, 2, seed=42)))
        assert fresh.result(timeout=120).grid is not None
        assert service.progress()["workers"] <= config.workers
        snap = service.metrics.snapshot()
        assert snap.counter("serve_deadline_expired_total") >= len(deadlines)


def test_default_deadline_from_config():
    config = ServiceConfig(workers=1, cache=False, default_deadline_s=0.001)
    with SolverService(config) as service:
        gate = gated_problem()
        blocker = service.submit(_request(gate, jobs=1, deadline_s=120.0))
        assert gate.init.entered.wait(30)
        doomed = service.submit(_request(random_problem(24, 2, seed=5)))
        with pytest.raises(DeadlineExpired):
            doomed.result(timeout=30)
        gate.init.release.set()
        blocker.result(timeout=120)


# -- one dispatch, one solve ----------------------------------------------


def _hold_the_runner(service):
    """Park the (single) runner inside a blocker request; what is
    submitted before the returned ``release()`` queues up behind it, so
    identical requests are taken together as one solve."""
    blocker = gated_problem()
    future = service.submit(_request(blocker, tenant="blocker"))
    assert blocker.init.entered.wait(30)

    def release():
        blocker.init.release.set()
        future.result(timeout=120)

    return release


def test_identical_requests_deduplicate_within_a_batch():
    problem = random_problem(24, 4, seed=7)
    config = ServiceConfig(workers=1, cache=False, tenant_limit=None)
    with SolverService(config) as service:
        release = _hold_the_runner(service)
        client = SolverClient(service, tenant="alice")
        futures = client.map([problem] * 6)
        release()
        grids = [f.result(timeout=120).grid for f in futures]
        for grid in grids[1:]:
            assert np.array_equal(grid, grids[0])
        assert solve_finished(service, "alice")  # its counters merged
        snap = service.metrics.snapshot()
        assert snap.counter("serve_dedup_total") == 5
        assert snap.counter("serve_batches_total") == 2  # blocker + the six
        # dedup means fewer executions than submissions: seven futures
        # resolved ok, two requests (the blocker, one of the six) ran
        completed = snap.labelled("serve_jobs_completed_total")
        total_ok = sum(v for ls, v in completed.items()
                       if dict(ls)["status"] == "ok")
        assert total_ok == 7
        assert (snap.counter("serve_pool_cold_starts_total")
                + snap.counter("serve_pool_warm_starts_total")) == 2


def _starts(snap) -> float:
    return (snap.counter("serve_pool_cold_starts_total")
            + snap.counter("serve_pool_warm_starts_total"))


def test_different_solves_of_one_tenant_are_separate_dispatches():
    """Nothing fuses different solves: two signatures queued behind a
    blocker are two dispatches.  A third request that differs from the
    first only in schedule knobs is the same solve and rides it."""
    problems = [random_problem(24, 4, seed=s) for s in (8, 9)]
    config = ServiceConfig(workers=1, cache=False, tenant_limit=None)
    with SolverService(config) as service:
        release = _hold_the_runner(service)
        futures = [
            service.submit(_request(problems[0], tenant="alice")),
            service.submit(_request(problems[1], tenant="alice")),
            service.submit(_request(problems[0], tenant="alice", jobs=1,
                                    policy="fifo")),
        ]
        release()
        first, second, again = [f.result(timeout=120) for f in futures]
        assert solve_finished(service, "alice")
        snap = service.metrics.snapshot()
    assert snap.counter("serve_batches_total") == 3  # the blocker + one per signature
    assert snap.counter("serve_dedup_total") == 1
    assert _starts(snap) == 3
    assert np.array_equal(first.grid, again.grid)
    assert not np.array_equal(first.grid, second.grid)


def test_a_chaos_request_never_rides_its_fault_free_twin(tmp_path):
    """Equal signatures, one under a fault plan: two solves (faults and
    retries are per-plan state), and still one answer."""
    problem = random_problem(24, 4, seed=10)
    config = ServiceConfig(workers=1, cache=False, tenant_limit=None,
                           checkpoint_dir=tmp_path)
    with SolverService(config) as service:
        release = _hold_the_runner(service)
        futures = [
            service.submit(_request(problem, tenant="alice")),
            service.submit(_request(problem, tenant="alice",
                                    chaos_plan="delay:node=1,step=1,secs=0")),
        ]
        release()
        plain, chaos = [f.result(timeout=120) for f in futures]
        assert solve_finished(service, "alice")
        snap = service.metrics.snapshot()
    assert plain.signature == chaos.signature
    assert snap.counter("serve_dedup_total") == 0
    assert snap.counter("serve_batches_total") == 3
    assert plain.faults_injected == 0 and chaos.faults_injected > 0
    assert np.array_equal(plain.grid, chaos.grid)


def test_a_duplicate_keeps_its_own_deadline(tmp_path, monkeypatch):
    """A (a deadline) and B (none) are identical and solved once: A
    fails at its own deadline while the solve runs on for B, and B
    resolves with the direct-run grid.  Each is counted once."""
    writes = GatedPayloadWrites(monkeypatch)
    with SolverService(ServiceConfig(workers=1, cache=tmp_path)) as service:
        blocker = service.submit(_request(random_problem(24, 2, seed=31),
                                          tenant="blocker"))
        blocker.result(timeout=120)
        assert writes.started.wait(30)  # the runner is parked in its cache write
        problem = gated_problem()
        a = service.submit(_request(problem, tenant="alice", deadline_s=2.0))
        b = service.submit(_request(problem, tenant="alice"))
        writes.release.set()
        assert problem.init.entered.wait(30)  # one solve for both, parked
        error = a.exception(timeout=30)
        assert isinstance(error, DeadlineExpired)
        assert "while its solve ran" in str(error)
        assert not b.done()
        problem.init.release.set()
        outcome = b.result(timeout=120)
        assert solve_finished(service, "alice")
        snap = service.metrics.snapshot()
        stats = service.stats()
    direct = run(problem, impl="ca-parsec", machine=nacl(4), tile=6, steps=3,
                 mode="execute", backend="threads", jobs=2).grid
    assert np.array_equal(outcome.grid, direct)
    assert snap.counter("serve_dedup_total") == 1
    assert snap.counter("serve_batches_total") == 2
    completed = {dict(ls)["status"]: v for ls, v in
                 snap.labelled("serve_jobs_completed_total").items()}
    assert completed == {"ok": 2, "expired": 1}
    assert snap.labelled("serve_deadline_expired_total") == {
        (("where", "running"),): 1}
    assert stats["submitted"] == stats["finished"] == 3


@lru_cache(maxsize=None)
def _direct(seed: int) -> np.ndarray:
    return run(random_problem(24, 2, seed=seed), impl="ca-parsec",
               machine=nacl(4), tile=6, steps=3, mode="execute").grid


@given(mix=st.lists(
    st.tuples(st.integers(40, 42), st.sampled_from(["alice", "bob"]),
              st.booleans()),
    min_size=2, max_size=8,
))
@settings(max_examples=8, deadline=None)
def test_every_future_resolves_once_and_the_counters_conserve(mix):
    """Any mix of duplicates, tenants and deadlines that have already
    passed, queued behind a blocker: every future resolves exactly once
    (an answer equal to the direct run, or DeadlineExpired), the
    completions by status add up to the submissions, and no dispatch
    starts or executes more than one solve."""
    config = ServiceConfig(workers=1, cache=False, tenant_limit=None)
    resolved = Counter()
    with SolverService(config) as service:
        release = _hold_the_runner(service)
        futures = []
        for k, (seed, tenant, expired) in enumerate(mix):
            future = service.submit(_request(
                random_problem(24, 2, seed=seed), tenant=tenant, jobs=1,
                deadline_s=1e-9 if expired else None))
            future.add_done_callback(lambda _, k=k: resolved.update([k]))
            futures.append(future)
        release()
        for future in futures:
            future.exception(timeout=120)
        assert all(solve_finished(service, t) for t in ("alice", "bob", "blocker"))
        snap = service.metrics.snapshot()
        stats = service.stats()
        executes = [span for tid in service.lifecycle.trace_ids()
                    for span in service.lifecycle.spans_of(tid)
                    if span.name == "execute"]
    assert resolved == Counter(range(len(mix)))
    completed = snap.labelled("serve_jobs_completed_total")
    assert sum(completed.values()) == stats["finished"] == stats["submitted"] == len(mix) + 1
    dispatches = snap.counter("serve_batches_total")
    assert _starts(snap) <= dispatches and len(executes) <= dispatches
    for (seed, _, expired), future in zip(mix, futures):
        if expired:
            assert isinstance(future.exception(), DeadlineExpired)
        else:
            assert np.array_equal(future.result().grid, _direct(seed))


def test_racing_deadlines_resolve_and_count_every_member_once():
    """Three runners (more than the host's cores) under a 10 µs switch
    interval, duplicates with and without short deadlines: whichever of
    the queue, a runner or the reaper reaches a member first resolves it,
    once, and each request is counted once."""
    config = ServiceConfig(workers=3, cache=False, tenant_limit=None)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SolverService(config) as service:
            futures = [service.submit(_request(
                random_problem(24, 2, seed=40 + k % 3), tenant=("alice", "bob")[k % 2],
                jobs=1, deadline_s=(None, 0.005, 0.05)[k // 3 % 3]))
                for k in range(40)]
            errors = [f.exception(timeout=120) for f in futures]
            assert solve_finished(service, "alice") and solve_finished(service, "bob")
            snap = service.metrics.snapshot()
    finally:
        sys.setswitchinterval(interval)
    expired = sum(isinstance(e, DeadlineExpired) for e in errors)
    assert all(e is None or isinstance(e, DeadlineExpired) for e in errors)
    completed = {dict(ls)["status"]: v for ls, v in
                 snap.labelled("serve_jobs_completed_total").items()}
    assert completed == {k: v for k, v in (("ok", 40 - expired), ("expired", expired)) if v}
    assert sum(snap.labelled("serve_deadline_expired_total").values()) == expired
    for k, (future, error) in enumerate(zip(futures, errors)):
        if error is None:
            assert np.array_equal(future.result().grid, _direct(40 + k % 3))


# -- resolve, then persist -----------------------------------------------


def test_solve_returns_before_the_cache_write_and_stop_waits_for_it(
        tmp_path, monkeypatch):
    problem = random_problem(24, 4, seed=21)
    gate = GatedPayloadWrites(monkeypatch)
    service = SolverService(ServiceConfig(workers=1, cache=tmp_path)).start()
    client = SolverClient(service, tenant="alice")
    outcome = client.solve(problem, timeout=120)  # the write is parked
    assert not outcome.cached and gate.started.wait(30)
    assert list(tmp_path.glob("*.result")) == [] and len(service.cache) == 0
    # The answer is already served from the cache's memory layer, and a
    # probe for something else does not wait for the write either.
    before = service.metrics.snapshot().counter("tasks_executed_total")
    repeat = client.solve(problem, timeout=10)
    assert repeat.cached and np.array_equal(repeat.grid, outcome.grid)
    assert service.cache.get("some-other-signature") is None
    stats = service.stats()
    assert stats["submitted"] == 2 and stats["finished"] == 2
    assert stats["cache_entries"] == 0
    assert service.metrics.snapshot().counter("tasks_executed_total") == before
    stopper = threading.Thread(target=service.stop, name="stopper")
    stopper.start()
    assert join_all([stopper], 0.2) == ["stopper"]  # waits for the runner's write
    gate.release.set()
    assert join_all([stopper], 30) == []
    assert _no_serve_leftovers() == []
    hit = ResultCache(tmp_path).get(outcome.signature)  # on disk now
    assert hit is not None and np.array_equal(hit.grid, outcome.grid)
    assert not list(tmp_path.glob(".*.tmp"))


def test_a_failing_cache_write_fails_no_future(tmp_path, monkeypatch):
    problems = [random_problem(24, 4, seed=s) for s in (22, 23)]
    GatedPayloadWrites(monkeypatch, fail=True)
    with SolverService(ServiceConfig(workers=1, cache=tmp_path)) as service:
        client = SolverClient(service, tenant="alice")
        with pytest.warns(RuntimeWarning, match="result cache write failed"):
            first = client.solve(problems[0], timeout=120)
            assert solve_finished(service, "alice")
        assert first.grid is not None and not first.cached
        assert client.solve(problems[0], timeout=10).cached  # the memory layer
        with pytest.warns(RuntimeWarning, match="No space left"):
            assert client.solve(problems[1], timeout=120).grid is not None
            assert solve_finished(service, "alice")  # the runner outlived it
        snap = service.metrics.snapshot()
        assert snap.counter("serve_cache_stores_total") == 0
        completed = {dict(ls)["status"]: v for ls, v in
                     snap.labelled("serve_jobs_completed_total").items()}
        assert completed == {"ok": 2, "cached": 1}
        assert service.stats()["postmortems"] == []
    assert list(tmp_path.iterdir()) == []  # no payload, no index, no temp file
    assert _no_serve_leftovers() == []


# -- what the service keeps resident -------------------------------------


def test_unique_results_are_not_kept_once_written(tmp_path):
    """40 executed requests nobody asks for again: once their writes
    have landed and the client has dropped them, no grid is alive --
    the cache keeps a result in memory only while it is written or
    after it is read again."""
    with SolverService(ServiceConfig(workers=1, cache=tmp_path)) as service:
        client = SolverClient(service, tenant="alice")
        mappings = []
        for seed in range(40):
            outcome = client.solve(random_problem(24, 2, seed=300 + seed),
                                   timeout=120)
            assert not outcome.cached
            mappings.append(weakref.ref(outcome.grid.base))
        del outcome
        assert solve_finished(service, "alice")
        gc.collect()
        assert [ref for ref in mappings if ref() is not None] == []
        assert len(service.cache) == 40


def test_a_repeat_during_the_write_is_admitted_and_skips_the_disk_after(
        tmp_path, monkeypatch):
    problem = random_problem(24, 4, seed=24)
    gate = GatedPayloadWrites(monkeypatch)
    with SolverService(ServiceConfig(workers=1, cache=tmp_path)) as service:
        client = SolverClient(service, tenant="alice")
        executed = client.solve(problem, timeout=120)
        assert gate.started.wait(30)  # the write is parked
        during = client.solve(problem, timeout=10)  # the write window: a hit
        gate.release.set()
        assert solve_finished(service, "alice") and len(service.cache) == 1
        disk = LoadSpy(monkeypatch)
        after = client.solve(problem, timeout=10)  # admitted by the re-read
        assert disk.calls == 0
        for hit in (during, after):
            assert hit.cached and not hit.grid.flags.writeable
            assert np.array_equal(hit.grid, executed.grid)
        completed = {dict(ls)["status"]: v for ls, v in service.metrics.snapshot()
                     .labelled("serve_jobs_completed_total").items()}
        assert completed == {"ok": 1, "cached": 2}


# -- client ergonomics ---------------------------------------------------


def test_client_binds_tenant_priority_and_deadline():
    service = SolverService(ServiceConfig(cache=False))
    client = SolverClient(service, tenant="alice", priority=3,
                          deadline_s=60.0)
    request = client._request(random_problem(24, 2))
    assert request.tenant == "alice"
    assert request.priority == 3
    assert request.deadline_s == 60.0
    override = client._request(random_problem(24, 2), priority=9)
    assert override.priority == 9 and override.tenant == "alice"


def test_client_requires_problem_or_request():
    service = SolverService(ServiceConfig(cache=False))
    client = SolverClient(service)
    with pytest.raises(TypeError, match="problem or a request"):
        client.submit()


@pytest.mark.parametrize("bad", [
    {"policy": "bogus"},
    {"steps": "auto"},
    {"steps": 0},
    {"tile": 0},
    {"tile": "auto"},
    {"ratio": 0.0},
    {"ratio": -1.0},
    {"jobs": 0},
    {"backend": "mpi"},
    {"impl": "petsc", "ratio": 0.5},
])
def test_invalid_knobs_fail_at_the_front_door(bad, tmp_path):
    """Every knob error is a ValueError at request construction /
    ``submit`` -- nothing is admitted, retried or dumped (a bogus
    policy used to come back from a worker as WorkerDied plus a
    postmortem file)."""
    problem = random_problem(24, 2)
    with pytest.raises(ValueError):
        _request(problem, **bad)
    config = ServiceConfig(cache=False, retry_budget=2, dump_dir=tmp_path)
    with SolverService(config) as service:
        client = SolverClient(service, tenant="alice")
        with pytest.raises(ValueError):
            client.submit(problem, **bad)
        with pytest.raises(ValueError):
            service.submit(_request(problem), **bad)
        stats = service.stats()
        snapshot = service.metrics.snapshot()
    assert stats["submitted"] == 0 and stats["postmortems"] == []
    assert snapshot.counter("serve_jobs_retried_total") == 0
    assert list(tmp_path.iterdir()) == []


def test_request_rejects_knobs_that_are_not_a_requests_to_set():
    problem = random_problem(24, 2)
    for knob in ({"mode": "simulate"}, {"procs": 2}, {"trace": True}):
        with pytest.raises(TypeError, match="unexpected knobs"):
            _request(problem, **knob)


# -- faults under load (repro.chaos x repro.serve) -----------------------


def test_chaos_job_retries_from_checkpoint_other_tenants_unaffected(tmp_path):
    """A worker killed mid-batch by a fault plan: the job is re-queued
    within its retry budget and its second attempt *resumes* from the
    checkpoint the first one persisted; a fault-free tenant sharing
    the service never notices."""
    from repro.obs.monitor import format_serve_summary

    chaos_problem = random_problem(24, 6, seed=11)
    steady_problem = random_problem(24, 4, seed=12)
    direct_chaos = run(chaos_problem, impl="ca-parsec", machine=nacl(4),
                       tile=6, steps=3, mode="execute", backend="threads",
                       jobs=2).grid
    direct_steady = run(steady_problem, impl="ca-parsec", machine=nacl(4),
                        tile=6, steps=3, mode="execute", backend="threads",
                        jobs=2).grid
    config = ServiceConfig(workers=2, cache=False, retry_budget=2,
                           checkpoint_dir=tmp_path)
    with SolverService(config) as service:
        # jobs=1 keeps the priority order exact: every sweep-3 tile is
        # checkpointed before the first sweep-3 task can fire the kill
        chaos_future = service.submit(_request(
            chaos_problem, tenant="chaos", chaos_plan="kill:node=3,step=1s",
            jobs=1,
        ))
        steady_futures = [
            service.submit(_request(steady_problem, tenant="steady"))
            for _ in range(2)
        ]
        for future in steady_futures:
            outcome = future.result(timeout=120)
            assert np.array_equal(outcome.grid, direct_steady)
            assert outcome.retries == 0 and not outcome.recovered
        outcome = chaos_future.result(timeout=120)
        assert np.array_equal(outcome.grid, direct_chaos)
        assert outcome.retries == 1
        assert outcome.recovered  # attempt 2 resumed from the checkpoint
        assert outcome.faults_injected == 1

        snap = service.metrics.snapshot()
        assert snap.counter("serve_jobs_retried_total") == 1
        summary = format_serve_summary(snap)
        assert "jobs retried" in summary
        assert "chaos faults / recoveries" in summary
    assert _no_serve_leftovers() == []


def test_retry_budget_exhausted_fails_leader_and_skips_followers(tmp_path):
    """Three kills against a budget of one: the first retry dies too,
    the leader surfaces the real error and a deduplicated follower of
    the same signature gets JobSkipped (the ParallelX skip-downstream
    outcome), not a silent hang."""
    from repro.serve import JobSkipped, WorkerDied

    problem = random_problem(24, 6, seed=13)
    plan = "kill:node=0,step=1;kill:node=1,step=2;kill:node=2,step=3"
    config = ServiceConfig(workers=1, cache=False, retry_budget=1,
                           checkpoint_dir=tmp_path, tenant_limit=None)
    with SolverService(config) as service:
        release = _hold_the_runner(service)
        futures = [
            service.submit(_request(problem, tenant="alice", chaos_plan=plan))
            for _ in range(2)
        ]
        release()
        errors = []
        for future in futures:
            with pytest.raises(Exception) as info:
                future.result(timeout=120)
            errors.append(info.value)
        kinds = {type(e) for e in errors}
        assert WorkerDied in kinds
        assert JobSkipped in kinds
        snap = service.metrics.snapshot()
        # both deduplicated jobs were re-queued on the first retry
        assert snap.counter("serve_jobs_retried_total") == 2
    assert _no_serve_leftovers() == []


def test_retry_budget_zero_keeps_legacy_fail_behaviour(tmp_path):
    """Without a budget a lost node is a plain failure for every job in
    the batch -- the pre-chaos contract, verbatim."""
    problem = random_problem(24, 6, seed=14)
    config = ServiceConfig(workers=1, cache=False,
                           checkpoint_dir=tmp_path)
    with SolverService(config) as service:
        future = service.submit(_request(
            problem, tenant="alice", chaos_plan="kill:node=1,step=1s",
        ))
        with pytest.raises(Exception):
            future.result(timeout=120)
        snap = service.metrics.snapshot()
        assert snap.counter("serve_jobs_retried_total") == 0
    assert _no_serve_leftovers() == []
