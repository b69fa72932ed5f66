"""Serve workers (``repro.serve.pool``) and the runner threads that
own them (``repro.serve.service``).

The load-bearing test is the warm-reuse regression: sequential jobs
through one worker must produce grids bit-identical to cold ``run()``
calls, and ``warm`` must mean exactly "this worker had already
executed a request" -- on both worker kinds, for every backend.  The
second half drives a live service: a runner spawns its worker on its
first solve, replaces a dead one, retires an idle child, and closes
whatever it holds on the way out.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.runner import run
from repro.exec import fork_available
from repro.machine.machine import nacl
from repro.serve import (
    ServiceClosed,
    ServiceConfig,
    SolverService,
    execute_request,
)
from repro.serve.pool import InProcessWorker, ProcessWorker, _CancelScope
from repro.serve.request import DeadlineExpired, WorkerDied
from repro.stencil.problem import JacobiProblem

from .conftest import join_all, run_on_thread
from .serve_helpers import (
    _no_serve_leftovers,
    _request,
    solve_finished,
    gated_problem,
    gated_problems,
    random_problem,
)

KINDS = [
    "threads",
    pytest.param("processes", marks=pytest.mark.skipif(
        not fork_available(), reason="needs POSIX fork")),
]


# -- warm reuse ----------------------------------------------------------


def _three_requests_warm_after_the_first(worker, backends):
    """Three sequential requests through one pool worker == three cold
    ``run()`` calls bit for bit, and only the first one is cold --
    whatever backend the request asks for."""
    problems = [random_problem(24, 6, seed=s) for s in (1, 2, 3)]
    cold_grids = [
        run(p, impl="ca-parsec", machine=nacl(4), tile=6, steps=3,
            mode="execute").grid
        for p in problems
    ]
    try:
        outcomes = []
        for seq, (problem, backend) in enumerate(zip(problems, backends)):
            jobs = None if backend == "sim" else 2
            request = _request(problem, backend=backend, jobs=jobs)
            (status, outcome), snapshot, _spans = worker.run(
                (seq, request, None, None))
            assert status == "ok"
            outcomes.append(outcome)
            kind = "warm" if seq else "cold"
            assert snapshot.labelled(f"serve_pool_{kind}_starts_total") == {
                (("slot", worker.name),): 1}
    finally:
        worker.close()
    assert [o.warm for o in outcomes] == [False, True, True]
    for outcome, grid in zip(outcomes, cold_grids):
        assert np.array_equal(outcome.grid, grid)


def test_warm_reuse_bit_identical_to_cold_runs():
    second = "processes" if fork_available() else "threads"
    _three_requests_warm_after_the_first(
        InProcessWorker("w"), ["threads", second, "sim"])


@pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
def test_warm_reuse_bit_identical_to_cold_runs_in_a_forked_worker():
    # (a daemonic pool child cannot fork a processes-backend run)
    _three_requests_warm_after_the_first(
        ProcessWorker("w"), ["threads", "threads", "sim"])


def test_direct_execute_request_is_never_warm():
    request = _request(random_problem(24, 2))
    assert [execute_request(request).warm for _ in range(2)] == [False, False]


# -- deadline cancellation -----------------------------------------------


def test_cancel_scope_retries_until_the_run_has_started():
    """The reaper calls ``cancel(seq)`` every tick: before the executor
    exists, and before it has started, the answer is ``False`` (try
    again); once running it is stopped through its public ``cancel()``;
    an engine without one is left alone."""
    from repro.exec import RunCancelled, ThreadedExecutor
    from repro.runtime.graph import TaskGraph
    from repro.runtime.task import Task

    started, release = threading.Event(), threading.Event()

    def kernel(inputs, task):
        started.set()
        release.wait(30)
        return {}

    graph = TaskGraph()
    graph.add(Task("only", node=0, kernel=kernel, out_nbytes={}))
    graph.add(Task("later", node=0, kernel=kernel, out_nbytes={}))
    executor = ThreadedExecutor(graph, jobs=1)
    scope = _CancelScope()
    scope.arm(7)
    assert scope.cancel(7) is False  # no executor seen yet
    scope.seen(executor)
    assert scope.cancel(7) is False  # seen, not started: next tick
    wait = run_on_thread(executor.run, 30)
    assert started.wait(30)
    assert scope.cancel(8) is False  # another job's deadline
    assert scope.cancel(7) is True
    release.set()
    with pytest.raises(RunCancelled):
        wait()
    assert scope.cancel(7) is False  # finished
    scope.seen(object())  # the sim Engine: no cancel()
    assert scope.cancel(7) is False


# -- workers -------------------------------------------------------------


def test_inprocess_worker_with_pre_expired_item(monkeypatch):
    from repro.core import runner

    built, build = [], runner._build
    monkeypatch.setattr(runner, "_build", lambda problem, *rest: (
        built.append(problem), build(problem, *rest))[1])
    worker = InProcessWorker("w")
    fresh = _request(random_problem(24, 2, seed=3))
    (status_a, outcome), snapshot_a, spans_a = worker.run((0, fresh, None, None))
    stale = (1, _request(random_problem(24, 2, seed=4)), time.monotonic() - 1.0, None)
    (status_b, error), snapshot_b, spans_b = worker.run(stale)
    assert spans_a == spans_b == []  # untraced items produce no lifecycle spans
    assert status_a == "ok" and outcome.grid is not None
    assert status_b == "expired" and isinstance(error, DeadlineExpired)
    assert snapshot_a.counter("tasks_executed_total") > 0
    assert snapshot_a.counter("serve_pool_cold_starts_total") == 1
    # an item expired on arrival builds nothing, starts nothing, runs nothing
    assert built == [fresh.problem]
    assert snapshot_b.counter("tasks_executed_total") == 0
    assert snapshot_b.counter("serve_pool_cold_starts_total") == 0
    assert snapshot_b.counter("serve_pool_warm_starts_total") == 0


@pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
def test_process_worker_solves_and_dies_on_cancel():
    worker = ProcessWorker("w")
    try:
        problem = random_problem(24, 2, seed=5)
        (status, outcome), snapshot, _spans = worker.run(
            (0, _request(problem), None, None))
        assert status == "ok"
        direct = run(problem, impl="ca-parsec", machine=nacl(4), tile=6,
                     steps=3, mode="execute", backend="threads", jobs=2)
        assert np.array_equal(outcome.grid, direct.grid)
        assert snapshot.counter("tasks_executed_total") > 0  # merged home
        assert worker.alive()
        assert worker.cancel(0)  # the blunt instrument: kill the child
        worker._proc.join(timeout=5.0)
        assert not worker.alive()
        with pytest.raises(WorkerDied):
            worker.run((1, _request(problem), None, None))
    finally:
        worker.close()


# -- runners own their workers (service level) ---------------------------


def _pool_counter(service, what: str) -> float:
    return service.metrics.snapshot().counter(f"serve_pool_{what}_total")


def _solve(service, seed: int):
    return service.submit(
        _request(random_problem(24, 2, seed=seed))).result(timeout=120)


@pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
def test_pool_replaces_dead_idle_worker():
    """A child killed while idle: the next request is served by a
    fresh, cold one, and the death is counted once."""
    config = ServiceConfig(pool="processes", workers=1, cache=False)
    with SolverService(config) as service:
        assert _solve(service, 1).warm is False
        assert _solve(service, 2).warm is True
        child = service._workers[0]._proc
        os.kill(child.pid, signal.SIGKILL)
        child.join(10)
        assert _solve(service, 3).warm is False  # a fresh child
        assert _solve(service, 4).warm is True
        assert service.stats()["pool"] == {
            "kind": "processes", "spawned": 2, "workers": 1}
        snap = service.metrics.snapshot()  # names and labels, pinned
        assert snap.labelled("serve_pool_replaced_total") == {
            (("kind", "processes"),): 1}
        assert snap.gauge("serve_pool_workers") == 1
        assert snap.labelled("serve_pool_cold_starts_total") == {
            (("slot", "pool-processes-1"),): 1,
            (("slot", "pool-processes-2"),): 1}
    assert _no_serve_leftovers(timeout=10.0) == []


def test_pool_counts_dead_worker_on_release():
    """A worker found dead when its solve ends is dropped there and
    then (the live count says so), counted, and its successor spawns
    on demand."""
    with SolverService(ServiceConfig(workers=1, cache=False)) as service:
        assert _solve(service, 1).warm is False
        problem = gated_problem()
        running = service.submit(_request(problem))
        assert problem.init.entered.wait(30)
        service._workers[0].alive = lambda: False  # dies mid-solve
        problem.init.release.set()
        assert running.result(timeout=120).warm is True
        assert solve_finished(service)
        assert service.progress()["workers"] == 0
        assert _pool_counter(service, "replaced") == 1
        assert _solve(service, 2).warm is False
        assert service.stats()["pool"] == {
            "kind": "threads", "spawned": 2, "workers": 1}


@pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
@pytest.mark.parametrize("retry_budget", [0, 1])
def test_killed_child_mid_batch_fails_or_retries_and_is_replaced(retry_budget):
    """SIGKILL the child while it executes: without a retry budget the
    future fails with WorkerDied, within one the request is re-run; in
    both cases by a fresh child, and one replacement is counted."""
    config = ServiceConfig(pool="processes", workers=1, cache=False,
                           retry_budget=retry_budget)
    with SolverService(config) as service:
        problem = gated_problem()
        doomed = service.submit(_request(problem))
        assert problem.init.entered.wait(30)  # parked inside the child
        os.kill(service._workers[0]._proc.pid, signal.SIGKILL)
        if retry_budget:
            outcome = doomed.result(timeout=120)  # the gate parks once
            assert outcome.retries == 1 and outcome.warm is False
        else:
            with pytest.raises(WorkerDied):
                doomed.result(timeout=120)
            assert solve_finished(service)
            assert service.progress()["workers"] == 0
            assert _solve(service, 1).warm is False
        assert _pool_counter(service, "replaced") == 1
        assert service.stats()["pool"]["spawned"] == 2
    assert _no_serve_leftovers(timeout=10.0) == []


def test_pool_reap_idle_down_to_min_workers(monkeypatch):
    """What idling costs decides who is retired: a forked child is
    closed after ``IDLE_TIMEOUT_S`` without work (counted; the next
    request forks a cold one), an in-process worker holds nothing, is
    never retired and never reads cold again."""
    monkeypatch.setattr("repro.serve.service.IDLE_TIMEOUT_S", 0.05)
    if fork_available():
        config = ServiceConfig(pool="processes", workers=1, cache=False)
        with SolverService(config) as service:
            assert _solve(service, 1).warm is False
            service._workers[0]._proc.join(30)  # the runner closes it
            assert service._workers[0] is None
            snap = service.metrics.snapshot()
            assert snap.labelled("serve_pool_retired_total") == {
                (("kind", "processes"),): 1}
            assert snap.gauge("serve_pool_workers") == 0
            assert service.progress()["workers"] == 0
            assert _solve(service, 2).warm is False
            assert _pool_counter(service, "replaced") == 0
        assert _no_serve_leftovers(timeout=10.0) == []
    with SolverService(ServiceConfig(workers=1, cache=False)) as service:
        waits, back_at_the_queue = [], threading.Event()
        take = service.queue.take

        def spy(timeout=None):
            waits.append(timeout)
            back_at_the_queue.set()
            return take(timeout=timeout)

        service.queue.take = spy
        assert _solve(service, 1).warm is False
        assert back_at_the_queue.wait(30)
        assert waits == [None]  # an untimed wait: nothing to wake up and retire
        assert _solve(service, 2).warm is True
        assert _pool_counter(service, "retired") == 0
        assert service.stats()["pool"] == {
            "kind": "threads", "spawned": 1, "workers": 1}


@pytest.mark.parametrize("kind", KINDS)
def test_deadline_cancel_reaches_the_running_job(kind):
    """The reaper finds the expired job in ``_running`` and cancels it
    on the worker that runs it: an in-process run stops at its next
    task boundary, a child is terminated (and replaced)."""
    config = ServiceConfig(pool=kind, workers=1, cache=False)
    problem = gated_problem()  # armed before the child is forked
    with SolverService(config) as service:
        assert _solve(service, 1).warm is False
        worker = service._workers[0]
        cancelled, cancel = threading.Event(), worker.cancel

        def spy(seq):
            hit = cancel(seq)
            if hit:
                cancelled.set()
            return hit

        worker.cancel = spy
        doomed = service.submit(_request(problem, deadline_s=0.2))
        assert problem.init.entered.wait(30)  # running, parked
        assert cancelled.wait(30)
        if kind == "threads":  # (a terminated child took its gate along)
            problem.init.release.set()
        reason = "mid-run" if kind == "threads" else "worker was reclaimed"
        with pytest.raises(DeadlineExpired, match=reason):
            doomed.result(timeout=120)
        fresh = _solve(service, 2)
        assert fresh.warm is (kind == "threads")
        assert _pool_counter(service, "replaced") == (kind == "processes")
        expired = service.metrics.snapshot().labelled(
            "serve_deadline_expired_total")
        assert expired == {(("where", "running"),): 1}
    assert _no_serve_leftovers(timeout=10.0) == []


@pytest.mark.parametrize("kind", KINDS)
def test_stop_while_a_batch_executes(kind):
    """``stop()`` with one solve in flight and more queued: the queued
    futures fail typed, the solve finishes, every thread and child is
    gone and the worker table is empty."""
    config = ServiceConfig(pool=kind, workers=1, cache=False,
                           tenant_limit=None)
    service = SolverService(config).start()
    problem = gated_problem()
    running = service.submit(_request(problem))
    assert problem.init.entered.wait(30)
    queued = [service.submit(_request(random_problem(24, 2, seed=s)))
              for s in (1, 2)]
    stopper = threading.Thread(target=service.stop)
    stopper.start()
    for future in queued:  # stop() is past closing the queue: joining
        assert isinstance(future.exception(timeout=30), ServiceClosed)
    problem.init.release.set()
    assert running.result(timeout=120).grid is not None
    assert join_all([stopper], 30) == []
    assert _no_serve_leftovers(timeout=10.0) == []
    assert service.stats()["pool"] == {
        "kind": kind, "spawned": 1, "workers": 0}


@pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
def test_stop_closes_the_child_a_stuck_runner_holds():
    """A runner that outlasts ``stop()``'s join: its child is closed
    under it, which fails the solve and lets the runner exit."""
    config = ServiceConfig(pool="processes", workers=1, cache=False)
    service = SolverService(config).start()
    problem = gated_problem()
    stuck = service.submit(_request(problem))
    assert problem.init.entered.wait(30)
    service.stop(timeout=0.1)
    with pytest.raises(WorkerDied):
        stuck.result(timeout=30)
    assert _no_serve_leftovers(timeout=10.0) == []
    assert service.stats()["pool"]["workers"] == 0


@pytest.mark.parametrize("kind", KINDS)
def test_two_runners_spawn_one_worker_each_and_keep_it(kind):
    """2 runners x 40 closed-loop requests under a short switch
    interval: cold starts == workers spawned, and every ``slot`` label
    is the name of the worker exactly one runner holds."""
    problems = [random_problem(24, 2, seed=s) for s in range(4)]
    config = ServiceConfig(pool=kind, workers=2, cache=False)
    errors: list[BaseException] = []

    def client(service, tenant):
        try:
            for k in range(40):
                service.submit(_request(problems[k % 4], tenant=tenant,
                                        jobs=1)).result(timeout=120)
        except BaseException as exc:  # noqa: BLE001 - reported below
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with SolverService(config) as service:
            clients = [threading.Thread(target=client, args=(service, t))
                       for t in ("alice", "bob")]
            for t in clients:
                t.start()
            assert join_all(clients, 240) == [] and errors == []
            # a solve's counters are merged after its futures resolve
            assert solve_finished(service, "alice")
            assert solve_finished(service, "bob")
            snap = service.metrics.snapshot()
            held = [w.name for w in service._workers if w is not None]
            pool = service.stats()["pool"]
    finally:
        sys.setswitchinterval(interval)
    cold = snap.labelled("serve_pool_cold_starts_total")
    warm = snap.labelled("serve_pool_warm_starts_total")
    assert set(cold.values()) == {1}
    assert sum(cold.values()) == pool["spawned"] == pool["workers"] == len(held)
    assert {dict(ls)["slot"] for ls in cold} == set(held)
    assert {dict(ls)["slot"] for ls in warm} <= set(held)
    assert sum(cold.values()) + sum(warm.values()) == 80
    assert _pool_counter(service, "replaced") == 0
    assert _no_serve_leftovers(timeout=10.0) == []


# -- in-process solves run side by side ---------------------------------------


@pytest.mark.parametrize("backend", [
    "threads", "sim", pytest.param("processes", marks=pytest.mark.skipif(
        not fork_available(), reason="needs POSIX fork"))])
def test_a_request_computes_beside_a_parked_in_process_solve(backend):
    """Two runners, one interpreter: while A is parked inside its init
    task, B -- submitted after it -- is admitted, dispatched, computed
    and resolved.  Its only wait is the queue's."""
    config = ServiceConfig(workers=2, cache=False, tenant_limit=None)
    other = random_problem(24, 2, seed=1)
    jobs = None if backend == "sim" else 1
    with SolverService(config) as service:
        problem = gated_problem()
        first = service.submit(_request(problem, jobs=1))
        assert problem.init.entered.wait(30)  # A is executing, parked
        second = service.submit(_request(other, backend=backend, jobs=jobs))
        b = second.result(timeout=120)
        assert not first.done()
        assert service.progress()["workers"] == 2  # both runners hold a worker
        (queued,) = [s for s in service.lifecycle.spans_of(b.trace_id)
                     if s.name == "queued"]
        assert b.queue_wait_s == pytest.approx(queued.duration)
        assert np.array_equal(b.grid, run(
            other, impl="ca-parsec", machine=nacl(4), tile=6, steps=3,
            mode="execute").grid)
        problem.init.release.set()
        assert first.result(timeout=120).grid is not None


def test_a_mixed_stream_on_two_runners_matches_direct_runs(tmp_path):
    """``threads`` requests, a ``sim`` request and a chaos request of
    its own signature, all in flight on two runners at once: every grid
    equals a direct ``run()``'s."""
    knobs = dict(impl="ca-parsec", machine=nacl(4), tile=6, steps=3)
    stream = [
        (random_problem(24, 4, seed=40), dict(jobs=1), {}),
        (random_problem(24, 4, seed=41), dict(jobs=2), {}),
        (random_problem(24, 4, seed=42), dict(backend="sim", jobs=None), {}),
        (random_problem(24, 4, seed=44), dict(jobs=1),
         dict(chaos_plan="delay:node=1,step=1,secs=0")),
        (random_problem(24, 4, seed=45), dict(jobs=2), {}),
    ]
    config = ServiceConfig(workers=2, cache=False, tenant_limit=None,
                           checkpoint_dir=tmp_path)
    with SolverService(config) as service:
        futures = [service.submit(_request(problem, **shape, **extra))
                   for problem, shape, extra in stream]
        outcomes = [future.result(timeout=120) for future in futures]
        assert solve_finished(service)
        snap = service.metrics.snapshot()
    assert snap.counter("serve_batches_total") == len(stream)
    assert outcomes[3].faults_injected > 0
    for outcome, (problem, shape, _extra) in zip(outcomes, stream):
        direct = run(problem, mode="execute",
                     **{**knobs, "backend": "threads", **shape})
        assert np.array_equal(outcome.grid, direct.grid)


@pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
def test_a_processes_pool_serialises_nothing():
    config = ServiceConfig(pool="processes", workers=2, cache=False,
                           tenant_limit=None)
    problem = gated_problem()  # armed before either child is forked
    with SolverService(config) as service:
        first = service.submit(_request(problem, jobs=1))
        assert problem.init.entered.wait(30)  # parked inside one child
        outcome = service.submit(
            _request(random_problem(24, 2, seed=4), jobs=1)).result(timeout=120)
        assert not first.done() and outcome.queue_wait_s < 0.05
        problem.init.release.set()
        first.result(timeout=120)
    assert _no_serve_leftovers(timeout=10.0) == []


def _boom(rows, cols):
    if rows.shape == (24, 24):  # the signature hashes the whole field
        return 0.0 * rows
    raise ArithmeticError("kernel failure")  # an init task loads a tile


def test_a_raising_kernel_does_not_stop_the_next_requests():
    """... which complete on either runner."""
    config = ServiceConfig(workers=2, cache=False, tenant_limit=None)
    with SolverService(config) as service:
        broken = JacobiProblem(n=24, iterations=2, init=_boom)
        with pytest.raises(WorkerDied, match="kernel failure"):
            service.submit(_request(broken, jobs=1)).result(timeout=120)
        for seed in (1, 2):
            assert _solve(service, seed).grid is not None


def test_reaper_cancel_and_stop_mid_solve_leave_the_other_runner_be(monkeypatch):
    """A solve cancelled by the reaper, then ``stop()``, each while the
    other runner's request is parked mid-solve: that request runs to
    completion, with the direct-run grid."""
    cancelled, cancel = threading.Event(), InProcessWorker.cancel

    def spy(self, seq=None):
        hit = cancel(self, seq)
        if hit:
            cancelled.set()
        return hit

    monkeypatch.setattr(InProcessWorker, "cancel", spy)
    config = ServiceConfig(workers=2, cache=False, tenant_limit=None)
    service = SolverService(config).start()
    try:
        doomed_problem, other = gated_problems(2)
        doomed = service.submit(_request(doomed_problem, jobs=1, deadline_s=0.2))
        assert doomed_problem.init.entered.wait(30)
        waiting = service.submit(_request(other, jobs=1))
        assert other.init.entered.wait(30) and cancelled.wait(30)
        doomed_problem.init.release.set()  # the cancel lands at the next task boundary
        with pytest.raises(DeadlineExpired, match="mid-run"):
            doomed.result(timeout=120)
        assert not waiting.done()
        other.init.release.set()
        assert np.array_equal(waiting.result(timeout=120).grid, run(
            other, impl="ca-parsec", machine=nacl(4), tile=6, steps=3,
            mode="execute").grid)

        running_problem, other = gated_problems(2)
        running = service.submit(_request(running_problem, jobs=1))
        waiting = service.submit(_request(other, jobs=1))
        assert running_problem.init.entered.wait(30) and other.init.entered.wait(30)
        stopper = threading.Thread(target=service.stop, name="stopper")
        stopper.start()
        assert join_all([stopper], 0.2) == ["stopper"]  # both solves in flight
        running_problem.init.release.set()
        assert running.result(timeout=120).grid is not None
        assert not waiting.done()
        other.init.release.set()
        assert waiting.result(timeout=120).grid is not None
        assert join_all([stopper], 30) == []
    finally:
        service.stop()
    assert _no_serve_leftovers(timeout=10.0) == []
