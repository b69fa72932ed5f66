"""Warm worker pools (``repro.serve.pool``).

The load-bearing test is the warm-reuse regression: sequential jobs
through one pool worker must produce grids bit-identical to cold
``run()`` calls, and ``warm`` must mean exactly "this worker had
already executed a request" -- on both worker kinds, for every
backend.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro.core.runner import run
from repro.distgrid.boundary import DirichletBC
from repro.exec import fork_available
from repro.machine.machine import nacl
from repro.serve import SolveRequest, WorkerPool, execute_request
from repro.serve.pool import InProcessWorker, ProcessWorker, _CancelScope
from repro.serve.request import DeadlineExpired, WorkerDied
from repro.stencil.kernels import StencilWeights
from repro.stencil.problem import JacobiProblem


class _GridInit:
    """Picklable random-data initialiser: requests cross the process
    pool's pipes, so closures are off the table."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def __call__(self, rows, cols):
        n, nc = self.values.shape
        return self.values[np.clip(rows, 0, n - 1), np.clip(cols, 0, nc - 1)]


def _bc(rows, cols):
    return np.sin(0.1 * rows) + np.cos(0.2 * cols)


def random_problem(n, iterations, seed=0):
    rng = np.random.default_rng(seed)
    return JacobiProblem(
        n=n,
        iterations=iterations,
        init=_GridInit(rng.normal(size=(n, n))),
        bc=DirichletBC(_bc),
        weights=StencilWeights.damped_jacobi(0.9),
    )


def _request(problem, **overrides) -> SolveRequest:
    knobs = dict(
        impl="ca-parsec", machine=nacl(4), tile=6, steps=3,
        backend="threads", jobs=2,
    )
    knobs.update(overrides)
    return SolveRequest(problem=problem, **knobs)


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
            results, snapshot, _spans = worker.run_batch([(seq, request, None)])
            (status, outcome), = results
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
    handle = executor.start()
    assert started.wait(30)
    assert scope.cancel(8) is False  # another job's deadline
    assert scope.cancel(7) is True
    release.set()
    with pytest.raises(RunCancelled):
        handle.result(timeout=30)
    assert scope.cancel(7) is False  # finished
    scope.seen(object())  # the sim Engine: no cancel()
    assert scope.cancel(7) is False


# -- workers -------------------------------------------------------------


def test_inprocess_worker_batch_with_pre_expired_item():
    worker = InProcessWorker("w")
    fresh = _request(random_problem(24, 2, seed=3))
    items = [
        (0, fresh, None),
        (1, _request(random_problem(24, 2, seed=4)), time.monotonic() - 1.0),
    ]
    results, snapshot, spans = worker.run_batch(items)
    (status_a, outcome), (status_b, error) = results
    assert spans == []  # untraced items produce no lifecycle spans
    assert status_a == "ok" and outcome.grid is not None
    assert status_b == "expired" and isinstance(error, DeadlineExpired)
    assert snapshot.counter("tasks_executed_total") > 0
    assert snapshot.counter("serve_pool_cold_starts_total") == 1


@pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
def test_process_worker_solves_and_dies_on_cancel():
    worker = ProcessWorker("w")
    try:
        problem = random_problem(24, 2, seed=5)
        results, snapshot, _spans = worker.run_batch(
            [(0, _request(problem), None)]
        )
        status, outcome = results[0]
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
            worker.run_batch([(1, _request(problem), None)])
    finally:
        worker.close()


# -- the pool ------------------------------------------------------------


def test_pool_replaces_dead_idle_worker():
    from repro.obs import MetricRegistry

    reg = MetricRegistry()
    pool = WorkerPool(kind="threads", max_workers=1, metrics=reg)
    try:
        first = pool.acquire(timeout=1.0)
        pool.release(first)
        first.alive = lambda: False  # simulate death while idle
        second = pool.acquire(timeout=1.0)
        assert second is not first  # health check swapped it out
        pool.release(second)
        assert reg.snapshot().counter("serve_pool_replaced_total") == 1
    finally:
        pool.shutdown()


def test_pool_counts_dead_worker_on_release():
    from repro.obs import MetricRegistry

    reg = MetricRegistry()
    pool = WorkerPool(kind="threads", max_workers=1, metrics=reg)
    try:
        worker = pool.acquire(timeout=1.0)
        worker.alive = lambda: False
        pool.release(worker)
        assert pool.size() == 0  # dropped, successor spawns on demand
        assert reg.snapshot().counter("serve_pool_replaced_total") == 1
        assert pool.acquire(timeout=1.0) is not worker
    finally:
        pool.shutdown()


def test_pool_reap_idle_down_to_min_workers():
    from repro.obs import MetricRegistry

    reg = MetricRegistry()
    pool = WorkerPool(kind="threads", max_workers=2, min_workers=1,
                      idle_timeout_s=0.01, metrics=reg)
    try:
        a, b = pool.acquire(timeout=1.0), pool.acquire(timeout=1.0)
        pool.release(a), pool.release(b)
        assert pool.size() == 2
        assert pool.reap_idle(now=time.monotonic() + 1.0) == 1
        assert pool.size() == 1  # the floor holds
        assert reg.snapshot().counter("serve_pool_retired_total") == 1
    finally:
        pool.shutdown()


def test_pool_acquire_blocks_at_capacity_then_frees():
    pool = WorkerPool(kind="threads", max_workers=1)
    try:
        worker = pool.acquire(timeout=1.0)
        assert pool.acquire(timeout=0.05) is None  # capacity exhausted
        pool.release(worker)
        assert pool.acquire(timeout=1.0) is worker  # warm body reused
    finally:
        pool.shutdown()


def test_pool_shutdown_rejects_acquire():
    pool = WorkerPool(kind="threads", max_workers=1)
    pool.shutdown()
    with pytest.raises(WorkerDied):
        pool.acquire(timeout=0.1)
