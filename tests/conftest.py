"""Shared test fixtures and helpers."""

from __future__ import annotations

import gc
import multiprocessing.connection
import multiprocessing.process
import threading
import time
from collections import Counter

import numpy as np
import pytest

from repro.core.base_parsec import build_base_graph
from repro.distgrid.boundary import DirichletBC
from repro.exec.procs import close_pools
from repro.machine.machine import nacl
from repro.stencil.kernels import StencilWeights
from repro.stencil.problem import JacobiProblem


def random_problem(
    n: int,
    iterations: int,
    seed: int = 0,
    ncols: int | None = None,
    omega: float = 0.9,
) -> JacobiProblem:
    """A Jacobi problem with reproducible random initial data and a
    non-trivial boundary, exercising every code path that constants
    would mask."""
    rng = np.random.default_rng(seed)
    nc = ncols or n
    values = rng.normal(size=(n, nc))

    def init(rows, cols):
        return values[np.clip(rows, 0, n - 1), np.clip(cols, 0, nc - 1)]

    def bc(rows, cols):
        return np.sin(0.1 * rows) + np.cos(0.2 * cols)

    return JacobiProblem(
        n=n,
        ncols=ncols,
        iterations=iterations,
        init=init,
        bc=DirichletBC(bc),
        weights=StencilWeights.damped_jacobi(omega),
    )


def small_stencil_graph():
    """A ``with_kernels=True`` base graph: 64 tasks of three kinds
    (init / interior / boundary) placed on two nodes."""
    return build_base_graph(random_problem(16, 3), nacl(2), tile=4,
                            with_kernels=True).graph


def assert_report_folds_match_graph(graph, report) -> None:
    """A real executor writes one record per task (the recorder's lane
    tuple); everything the report and the registry say about *which*
    tasks ran is folded from it and must equal a count taken straight
    off the graph."""
    assert report.completed == {task.key for task in graph}
    assert report.tasks_run == len(graph)
    assert sum(report.worker_busy.values()) == pytest.approx(
        sum(report.node_busy.values()))
    by_kind = {dict(labels)["kind"]: count for labels, count
               in report.metrics.labelled("tasks_executed_total").items()}
    assert by_kind == Counter(task.kind for task in graph)


#: How /proc/self/maps names a shared mapping: an anonymous one
#: (``mmap.mmap(-1, n)``: the procs backend's rings) and a build's
#: grid-and-landing memfd (its anonymous twin where the host has no
#: ``os.memfd_create``).
SHARED_MAPPINGS = ("/dev/zero (deleted)", "/memfd:repro-grid (deleted)")


def shared_mappings() -> int:
    """Shared mappings of this process: the result grids and the procs
    backend's rings.  Idle node pools are closed first: a pool a
    previous run left idles for up to ``IDLE_CLOSE`` seconds, and its
    rings must not come and go between two counts."""
    close_pools()
    gc.collect()
    with open("/proc/self/maps") as maps:
        return sum(any(name in line for name in SHARED_MAPPINGS) for line in maps)


@pytest.fixture(autouse=True)
def _no_pool_outlives_its_test():
    """Close the idle node pools a test's ``processes`` runs left, so
    the next test starts without them."""
    yield
    close_pools()


def count_thread_starts(monkeypatch) -> list[str]:
    """The names of the threads started in this process from now on,
    in order (``threading.Thread.start`` wrapped for the test)."""
    started: list[str] = []
    start = threading.Thread.start

    def counting(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting)
    return started


def run_on_thread(run, seconds: float):
    """Start ``run()`` -- an executor's ``run``, or a front door around
    one -- on a daemon thread, so the test can act while the run is in
    progress (``executor.cancel()``, kill a node).  Returns ``wait``:
    it returns what ``run`` returned or raises what it raised, and
    fails the test if ``run`` has not returned within ``seconds`` of
    the start: the hang guard of a run that takes no timeout."""
    outcome: list = []
    deadline = time.monotonic() + seconds

    def target():
        try:
            outcome.append((run(), None))
        except BaseException as exc:  # noqa: BLE001 - re-raised by wait()
            outcome.append((None, exc))

    thread = threading.Thread(target=target, name="test-run", daemon=True)
    thread.start()

    def wait():
        thread.join(max(0.0, deadline - time.monotonic()))
        if not outcome:
            pytest.fail(f"run() did not return within {seconds} s")
        result, exc = outcome[0]
        if exc is not None:
            raise exc
        return result

    return wait


def join_all(workers, timeout: float = 10.0) -> list[str]:
    """Join threads/processes against one shared deadline; returns the
    names of the ones still alive (``[]`` is the pass)."""
    workers = list(workers)
    deadline = time.monotonic() + timeout
    for worker in workers:
        worker.join(max(0.0, deadline - time.monotonic()))
    return [worker.name for worker in workers if _running(worker)]


def _running(worker) -> bool:
    """Whether a thread or process has not ended.  A process is asked
    through its sentinel, ready once it has exited: ``is_alive()`` on a
    process that another thread (an executor's watcher) is reaping at
    that moment answers True, because CPython's ``Popen.poll`` reads the
    other thread's ``waitpid`` win as "still running"."""
    if not isinstance(worker, multiprocessing.process.BaseProcess):
        return worker.is_alive()
    try:
        sentinel = worker.sentinel
    except ValueError:  # closed: only a finished process can be
        return False
    return not multiprocessing.connection.wait([sentinel], 0)


@pytest.fixture
def small_problem() -> JacobiProblem:
    return random_problem(n=24, iterations=6)


@pytest.fixture
def machine4():
    return nacl(4)


@pytest.fixture
def machine16():
    return nacl(16)
