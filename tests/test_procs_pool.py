"""Node pools: the node processes of a ``processes`` run outlive it.

A run whose graph can be described to a node process forked earlier (a
stencil build, unwrapped, whose problem pickles) keeps its nodes as the
pool of its ``(procs, jobs)``; a later run on that idle pool is sent as
a description plus the memfd of its build's mapping, and each node
rebuilds the graph for itself.  Anything else forks nodes that exit with
their run.  A cancel, a failure or a lost node closes a pool; an idle
one closes itself after ``IDLE_CLOSE`` seconds.
"""

from __future__ import annotations

import dataclasses
import gc
import multiprocessing
import os
import select
import signal
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.chaos import ChaosContext, parse_plan
from repro.chaos.inject import FaultInjector
from repro.core.base_parsec import build_base_graph
from repro.core.runner import run
from repro.exec import fork_available, pools, procs
from repro.exec.futures import RunCancelled
from repro.exec.procs import IDLE_CLOSE, ProcessExecutor, close_pools
from repro.machine.machine import nacl
from repro.runtime.report import KernelError, NodeLostError
from repro.serve import ServiceConfig, SolverClient, SolverService

from .conftest import join_all, random_problem, shared_mappings
from .serve_helpers import random_problem as picklable_problem

pytestmark = [pytest.mark.skipif(not fork_available(), reason="needs POSIX fork"),
              pytest.mark.timeout(300)]


def pids_of(executor) -> tuple[int, ...]:
    return tuple(proc.pid for proc in executor.processes)


def pooled_run(problem, **knobs):
    """``run()`` on ``processes``; returns the result and its node pids."""
    seen = []
    knobs = {"impl": "base-parsec", "tile": 6, "procs": 2, "jobs": 1, **knobs}
    result = run(problem, backend="processes", on_executor=seen.append, **knobs)
    return result, pids_of(seen[0])


def _pid_running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def wait_gone(pids, timeout: float) -> bool:
    """Wait, on a pidfd each, until every process of ``pids`` (not
    necessarily a child of this one) has exited; True if all did."""
    fds = []
    for pid in pids:
        try:
            fds.append(os.pidfd_open(pid))
        except ProcessLookupError:  # gone already
            pass
    try:
        deadline = time.monotonic() + timeout
        pending = list(fds)
        while pending and time.monotonic() < deadline:
            ready = select.select(pending, [], [], deadline - time.monotonic())[0]
            pending = [fd for fd in pending if fd not in ready]
        return not pending
    finally:
        for fd in fds:
            os.close(fd)


def procs_threads() -> list[threading.Thread]:
    return [t for t in threading.enumerate() if t.name.startswith("repro-procs-")]


def leftovers() -> tuple[list, list]:
    """Node processes and procs threads of this process still alive."""
    return multiprocessing.active_children(), [t.name for t in procs_threads()]


# -- reuse -------------------------------------------------------------------------


@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize("nodes", [2, 4])
@pytest.mark.parametrize("impl, steps", [("base-parsec", None), ("ca-parsec", 3)])
def test_one_pool_runs_three_problems_back_to_back(impl, steps, nodes, jobs):
    node_sets = set()
    for seed in range(3):
        problem = picklable_problem(24, 5, seed=seed)
        result, pids = pooled_run(problem, impl=impl, steps=steps, procs=nodes, jobs=jobs)
        node_sets.add(pids)
        assert np.array_equal(result.grid, problem.reference_solution())
        assert result.messages == result.graph.census().remote_messages
    assert len(node_sets) == 1 and len(next(iter(node_sets))) == nodes


def test_a_node_refuses_a_description_whose_plan_digest_differs():
    problem = picklable_problem(24, 4, seed=1)
    _, pids = pooled_run(problem)
    built = build_base_graph(problem, nacl(2), tile=6)
    built.graph.recipe = dataclasses.replace(built.graph.recipe, digest="0" * 16)
    executor = ProcessExecutor(built.graph, procs=2, jobs=1)
    with pytest.raises(KernelError, match="refused the run: its rebuilt graph's plan digest"):
        executor.run(timeout=60)
    assert pids_of(executor) == pids  # it was sent to the pool, which closed
    assert join_all(executor.processes) == []
    again, fresh = pooled_run(problem)
    assert fresh != pids and np.array_equal(again.grid, problem.reference_solution())


# -- faults close the pool ------------------------------------------------------------


def _long_pooled_run():
    """A pool, then a run started on it, too long to end before the
    caller interrupts it (300 sweeps)."""
    problem = picklable_problem(48, 300, seed=2)
    _, pids = pooled_run(problem)
    built = build_base_graph(problem, nacl(2), tile=6)
    executor = ProcessExecutor(built.graph, procs=2, jobs=1)
    handle = executor.start()
    assert pids_of(executor) == pids and handle.running()
    return problem, pids, executor, handle


@pytest.mark.parametrize("fault", ["cancel", "sigkill"])
def test_a_cancel_or_a_lost_node_closes_the_pool(fault):
    problem, pids, executor, handle = _long_pooled_run()
    if fault == "cancel":
        assert handle.cancel()
        with pytest.raises(RunCancelled):
            handle.result(timeout=60)
    else:
        os.kill(pids[1], signal.SIGKILL)
        with pytest.raises(NodeLostError) as info:
            handle.result(timeout=60)
        assert info.value.node == 1
    assert join_all(executor.processes) == []
    again, fresh = pooled_run(problem)
    assert fresh != pids
    assert np.array_equal(again.grid, problem.reference_solution())


def test_a_cancel_after_every_node_reported_closes_the_pool():
    """A cancel that comes once the last node has reported finds the
    nodes idle and stops them for good: the run stands, but its pool
    closes instead of cancelling the next run sent to it."""
    problem = picklable_problem(24, 4, seed=10)
    _, pids = pooled_run(problem)
    built = build_base_graph(problem, nacl(2), tile=6)
    executor = ProcessExecutor(built.graph, procs=2, jobs=1)

    class CancelOnceReceived(dict):
        def __setitem__(self, stamp, value):
            super().__setitem__(stamp, value)
            if stamp == "received":  # every node has reported
                assert executor.cancel()

    executor.stamps = CancelOnceReceived()
    report = executor.run(timeout=60)
    assert pids_of(executor) == pids
    assert np.array_equal(built.assemble_grid(report.results), problem.reference_solution())
    assert not any(proc.is_alive() for proc in executor.processes)  # reaped, not idling
    again, fresh = pooled_run(problem)
    assert fresh != pids and np.array_equal(again.grid, problem.reference_solution())


def test_an_idle_pool_with_a_dead_node_is_replaced():
    problem = picklable_problem(24, 4, seed=3)
    seen = []
    run(problem, backend="processes", tile=6, procs=2, on_executor=seen.append)
    pids = pids_of(seen[0])
    os.kill(pids[0], signal.SIGKILL)
    assert wait_gone(pids[:1], 10)  # dead before the next run looks
    again, fresh = pooled_run(problem)
    assert fresh != pids
    assert np.array_equal(again.grid, problem.reference_solution())
    assert not any(map(_pid_running, pids))


def test_an_idle_pool_whose_parent_dies_unwinds():
    """EOF on an idle node's control pipe means its parent died: it exits
    instead of waiting for a run that will not come."""
    ctx = multiprocessing.get_context("fork")

    def doomed_parent(conn):
        conn.send(pooled_run(picklable_problem(24, 4, seed=9))[1])
        os._exit(0)  # no cleanup at all

    reader, writer = ctx.Pipe(duplex=False)
    parent = ctx.Process(target=doomed_parent, args=(writer,))
    parent.start()
    pids = reader.recv()
    parent.join(30)
    assert parent.exitcode == 0 and len(pids) == 2
    assert wait_gone(pids, 10)


# -- what is not described forks, as before -----------------------------------------


@pytest.mark.parametrize("case", ["closures", "chaos", "coarsen", "plan", "memfd"])
def test_what_cannot_be_described_leaves_no_child(case, monkeypatch):
    problem, knobs = picklable_problem(24, 4, seed=4), {}
    if case == "closures":
        problem = random_problem(24, 4, seed=4)
    elif case == "chaos":
        plan = parse_plan("drop:src=0,dst=1,step=2,secs=0.01", seed=0)
        knobs["chaos"] = ChaosContext(FaultInjector(plan, s=1))
    elif case == "coarsen":
        knobs["passes"] = "coarsen:factor=2"
    elif case == "plan":  # every strip larger than a quarter of a pool's ring
        monkeypatch.setattr(procs, "RING_BYTES", 128)
    else:
        monkeypatch.delattr(os, "memfd_create")
    close_pools()
    result, _ = pooled_run(problem, **knobs)
    assert np.array_equal(result.grid, problem.reference_solution())
    assert leftovers()[0] == []  # reaped before run() returned


# -- closing -------------------------------------------------------------------------


def test_an_idle_pool_closes_itself_and_leaves_nothing_behind():
    close_pools()
    gc.collect()
    fds, mappings = len(os.listdir("/proc/self/fd")), shared_mappings()
    problem = picklable_problem(24, 4, seed=5)
    seen = []
    result = run(problem, backend="processes", tile=6, procs=2, on_executor=seen.append)
    pids = pids_of(seen[0])
    assert all(map(_pid_running, pids))  # kept
    assert np.array_equal(result.grid, problem.reference_solution())
    del result
    t0 = time.monotonic()
    # within the wall-clock benchmark's 2 s grace for leftovers
    assert join_all([*procs_threads(), *seen[0].processes], IDLE_CLOSE + 1.0) == []
    assert time.monotonic() - t0 < IDLE_CLOSE + 1.0
    assert leftovers() == ([], [])
    assert not any(map(_pid_running, pids))
    del seen  # the executor, whose process objects hold their sentinels
    gc.collect()
    assert len(os.listdir("/proc/self/fd")) == fds
    assert shared_mappings() == mappings


def test_a_pool_forked_from_a_worker_thread_serves_the_main_thread():
    problem = picklable_problem(24, 4, seed=6)
    with ThreadPoolExecutor(1) as threads:
        first, pids = threads.submit(pooled_run, problem).result(timeout=120)
    second, again = pooled_run(problem)
    assert again == pids
    truth = problem.reference_solution()
    assert np.array_equal(first.grid, truth) and np.array_equal(second.grid, truth)
    close_pools()
    assert leftovers() == ([], [])


def test_an_in_process_serve_runner_leaves_its_node_pool_to_close(monkeypatch):
    """``processes`` requests on a ``pool="threads"`` service fork from a
    runner thread; the pool serves both, and closes once the service
    has stopped and the pool idled."""
    start = ProcessExecutor.start
    runs, nodes = [], []

    def logged(self):
        handle = start(self)
        runs.append(pids_of(self))
        nodes.extend(self.processes)
        return handle

    monkeypatch.setattr(ProcessExecutor, "start", logged)
    problem = picklable_problem(24, 4, seed=7)
    with SolverService(ServiceConfig(pool="threads", workers=1, cache=False)) as service:
        client = SolverClient(service)
        for _ in range(2):
            outcome = client.solve(problem, machine=nacl(2), tile=6, backend="processes",
                                   timeout=120)
            assert np.array_equal(outcome.grid, problem.reference_solution())
    assert len(runs) == 2 and runs[0] == runs[1]
    assert join_all([*procs_threads(), *nodes], IDLE_CLOSE + 1.0) == []
    assert leftovers() == ([], [])


def test_a_serve_worker_forked_beside_a_pool_leaves_it_alone(monkeypatch):
    """A ``pool="processes"`` runner forks its worker while this process
    keeps a node pool: the worker does not take the pool's pipes with it
    when it stops, and the pool serves the next run."""
    monkeypatch.setattr(pools, "IDLE_CLOSE", 60.0)  # idle for the service's lifetime
    problem = picklable_problem(24, 4, seed=8)
    _, pids = pooled_run(problem)
    with SolverService(ServiceConfig(pool="processes", workers=1, cache=False)) as service:
        outcome = SolverClient(service).solve(problem, machine=nacl(2), tile=6, timeout=120)
        assert np.array_equal(outcome.grid, problem.reference_solution())
    again, same = pooled_run(problem)
    assert same == pids and np.array_equal(again.grid, problem.reference_solution())
    close_pools()
    assert leftovers() == ([], [])
