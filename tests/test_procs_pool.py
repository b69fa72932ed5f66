"""Node pools: the node processes of a ``processes`` run outlive it.

A run whose graph can be described to a node process (a stencil build,
unwrapped, whose problem pickles) is always sent as a description plus
the memfd of its build's mapping -- to the idle pool of its ``(procs,
jobs)``, or to nodes forked bare for it, kept as that pool if it has
none -- and each node rebuilds the graph for itself.  Anything else
forks one-shot nodes that inherit the graph and exit with their run.  A
cancel, a failure or a lost node closes a pool; an idle one closes
itself after ``IDLE_CLOSE`` seconds.
"""

from __future__ import annotations

import dataclasses
import gc
import mmap
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
from repro.exec.procs import IDLE_CLOSE, ProcessExecutor, close_pools
from repro.machine.machine import nacl
from repro.runtime.report import KernelError, NodeLostError, RunCancelled
from repro.serve import ServiceConfig, SolverClient, SolverService

from .conftest import (
    count_thread_starts,
    join_all,
    random_problem,
    run_on_thread,
    shared_mappings,
)
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


def grid_memfds(pid: int) -> set[int]:
    """Inodes of the build memfds (``memfd:repro-grid``) process ``pid``
    maps or holds open."""
    inodes = set()
    with open(f"/proc/{pid}/maps") as maps:
        for line in maps:
            if "memfd:repro-grid" in line:
                inodes.add(int(line.split()[4]))
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            if "memfd:repro-grid" in os.readlink(f"/proc/{pid}/fd/{fd}"):
                inodes.add(os.stat(f"/proc/{pid}/fd/{fd}").st_ino)
        except OSError:  # closed meanwhile
            pass
    return inodes


def node_kinds(monkeypatch):
    """Spy on every node process forked from now on: a shared array of
    one word per node, 1 where the node ran a graph it inherited, 0
    where it was forked bare for a pool, -1 where none started."""
    kinds = np.ndarray((4,), dtype=np.int64, buffer=mmap.mmap(-1, 32))
    kinds[...] = -1
    node_main = procs._node_main

    def spied(node, channels, ctrl, inherited, one_shot):
        kinds[node] = one_shot is not None
        node_main(node, channels, ctrl, inherited, one_shot)

    monkeypatch.setattr(procs, "_node_main", spied)
    return kinds


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
        run_on_thread(executor.run, 60)()
    assert pids_of(executor) == pids  # it was sent to the pool, which closed
    assert join_all(executor.processes) == []
    again, fresh = pooled_run(problem)
    assert fresh != pids and np.array_equal(again.grid, problem.reference_solution())


def test_a_fresh_pools_first_run_is_refused_on_a_digest_mismatch():
    """A pool's first run is sent as a description like every later one,
    so its nodes check the plan digest too."""
    close_pools()
    problem = picklable_problem(24, 4, seed=13)
    built = build_base_graph(problem, nacl(2), tile=6)
    built.graph.recipe = dataclasses.replace(built.graph.recipe, digest="0" * 16)
    executor = ProcessExecutor(built.graph, procs=2, jobs=1)
    with pytest.raises(KernelError, match="refused the run: its rebuilt graph's plan digest"):
        run_on_thread(executor.run, 60)()
    assert join_all(executor.processes) == []
    assert leftovers() == ([], [])


def test_a_describable_run_is_sent_and_any_other_inherited(monkeypatch):
    kinds = node_kinds(monkeypatch)
    close_pools()
    described = picklable_problem(24, 4, seed=14)
    result, _ = pooled_run(described)
    assert np.array_equal(result.grid, described.reference_solution())
    assert list(kinds[:2]) == [0, 0]  # forked bare, the graph rebuilt from its description
    close_pools()
    kinds[...] = -1
    closures = random_problem(24, 4, seed=14)
    result, _ = pooled_run(closures)
    assert np.array_equal(result.grid, closures.reference_solution())
    assert list(kinds[:2]) == [1, 1]
    assert leftovers()[0] == []  # one-shot: reaped before run() returned


def test_a_run_whose_pool_is_busy_gets_bare_nodes_that_close_after_it(monkeypatch):
    problem = picklable_problem(24, 4, seed=15)
    _, pids = pooled_run(problem)
    busy = pools._POOLS.checkout((2, 1))  # as a run in flight holds it
    assert busy is not None and tuple(p.pid for p in busy.processes) == pids
    kinds = node_kinds(monkeypatch)
    try:
        result, bare = pooled_run(problem)
        assert np.array_equal(result.grid, problem.reference_solution())
        assert list(kinds[:2]) == [0, 0]  # sent, not inherited
        assert bare != pids and not any(map(_pid_running, bare))
        assert sorted(p.pid for p in multiprocessing.active_children()) == sorted(pids)
    finally:
        pools._POOLS.release(busy)
    again, same = pooled_run(problem)  # the pool itself was not disturbed
    assert same == pids and np.array_equal(again.grid, problem.reference_solution())
    close_pools()
    assert leftovers() == ([], [])


def test_an_idle_node_holds_no_grid(monkeypatch):
    """A pool's node lets go of every build it inherited -- the one of
    the run it was forked for, and any grid this process still held --
    and maps each run's memfd for that run only: once the caller has let
    go of a grid, no idle node maps or holds it."""
    monkeypatch.setattr(pools, "IDLE_CLOSE", 60.0)  # idle while the test looks
    problem = picklable_problem(48, 4, seed=16)
    inodes, seen = [], []

    def spy(executor):
        seen.append(executor)
        inodes.append(os.fstat(executor.graph.recipe.fd).st_ino)

    def solve():
        result = run(problem, backend="processes", impl="base-parsec", tile=6, procs=2,
                     jobs=1, on_executor=spy)
        assert np.array_equal(result.grid, problem.reference_solution())
        return result

    kept = solve()  # a grid held while the next pool is forked
    close_pools()
    solve()  # the pool's first run
    last = solve()
    pids = pids_of(seen[1])
    assert pids_of(seen[2]) == pids
    del kept, last, seen
    gc.collect()
    dropped = set(inodes[:2])
    mine = grid_memfds(os.getpid())
    assert not mine & dropped
    for pid in pids:
        assert _pid_running(pid)
        held = grid_memfds(pid)
        assert not held & dropped and held <= mine, pid


def test_an_idle_pool_does_not_keep_its_last_run_alive(monkeypatch):
    """A kept pool's idle wait holds the pool, not the executor of its
    last run: once the caller drops the result, this process maps no
    grid of that run while the pool idles."""
    monkeypatch.setattr(pools, "IDLE_CLOSE", 60.0)  # idle while the test looks
    problem = picklable_problem(48, 4, seed=17)
    close_pools()
    inodes = []

    def spy(executor):  # keeps the run's memfd inode, not the executor
        inodes.append(os.fstat(executor.graph.recipe.fd).st_ino)

    result = run(problem, backend="processes", impl="base-parsec", tile=6, procs=2,
                 jobs=1, on_executor=spy)
    assert np.array_equal(result.grid, problem.reference_solution())
    pids = [proc.pid for proc in multiprocessing.active_children()]
    assert len(pids) == 2
    del result
    gc.collect()
    assert inodes[0] not in grid_memfds(os.getpid())
    assert all(map(_pid_running, pids))  # the pool still idles


# -- faults close the pool ------------------------------------------------------------


def _long_pooled_run():
    """A pool, then a run started on it, too long to end before the
    caller interrupts it (300 sweeps)."""
    problem = picklable_problem(48, 300, seed=2)
    _, pids = pooled_run(problem)
    built = build_base_graph(problem, nacl(2), tile=6)
    executor = ProcessExecutor(built.graph, procs=2, jobs=1)
    wait = run_on_thread(executor.run, 60)
    while not executor.processes:  # listed once the run is sent
        os.sched_yield()
    assert pids_of(executor) == pids
    return problem, pids, executor, wait


@pytest.mark.parametrize("fault", ["cancel", "sigkill"])
def test_a_cancel_or_a_lost_node_closes_the_pool(fault):
    problem, pids, executor, wait = _long_pooled_run()
    if fault == "cancel":
        assert executor.cancel()
        with pytest.raises(RunCancelled):
            wait()
    else:
        os.kill(pids[1], signal.SIGKILL)
        with pytest.raises(NodeLostError) as info:
            wait()
        assert info.value.node == 1
    assert join_all(executor.processes) == []
    again, fresh = pooled_run(problem)
    assert fresh != pids
    assert np.array_equal(again.grid, problem.reference_solution())


def test_a_cancel_after_every_node_reported_closes_the_pool():
    """A cancel that comes once the last node has reported finds the
    nodes idle and stops them for good: ``cancel()`` said True, so the
    run raises ``RunCancelled``, and its pool closes instead of
    cancelling the next run sent to it."""
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
    with pytest.raises(RunCancelled):
        run_on_thread(executor.run, 60)()
    assert pids_of(executor) == pids
    assert not any(proc.is_alive() for proc in executor.processes)  # reaped, not idling
    again, fresh = pooled_run(problem)
    assert fresh != pids and np.array_equal(again.grid, problem.reference_solution())


def test_a_cancel_during_dispatch_reaches_the_nodes(monkeypatch):
    """A cancel accepted while the run is still being sent to its pool
    is passed on once the nodes have it: they stop at once -- well
    inside ``JOIN_GRACE``, with most of the run undone -- ``run()``
    raises ``RunCancelled`` and the pool closes."""
    _, pids = pooled_run(picklable_problem(24, 4, seed=2))
    built = build_base_graph(picklable_problem(48, 300, seed=2), nacl(2), tile=6)
    executor = ProcessExecutor(built.graph, procs=2, jobs=1)
    dispatch = pools._Pool.dispatch

    def cancel_first(pool, *args):
        assert executor.cancel()
        dispatch(pool, *args)

    monkeypatch.setattr(pools._Pool, "dispatch", cancel_first)
    t0 = time.monotonic()
    with pytest.raises(RunCancelled):
        run_on_thread(executor.run, 60)()
    assert time.monotonic() - t0 < procs.JOIN_GRACE / 2
    assert executor.progress()["done"] < len(built.graph) / 2
    assert pids_of(executor) == pids
    assert join_all(executor.processes) == []


def test_an_interrupt_while_watching_closes_the_pool(monkeypatch):
    """A ``KeyboardInterrupt`` on the calling thread while it watches
    the nodes propagates, and the run's pool goes with it: no node keeps
    running a run that nobody watches."""
    _, pids = pooled_run(picklable_problem(24, 4, seed=2))
    built = build_base_graph(picklable_problem(48, 300, seed=2), nacl(2), tile=6)
    executor = ProcessExecutor(built.graph, procs=2, jobs=1)

    def interrupted(conns, timeout=None):
        raise KeyboardInterrupt

    monkeypatch.setattr(procs, "conn_wait", interrupted)
    with pytest.raises(KeyboardInterrupt):
        run_on_thread(executor.run, 60)()
    assert pids_of(executor) == pids
    assert join_all(executor.processes) == []
    assert executor.cancel() is False


def test_a_run_on_a_warm_pool_starts_one_thread(monkeypatch):
    """The calling thread watches the nodes: a run sent to an idle pool
    starts one thread in this process, the pool's idle wait."""
    problem = picklable_problem(24, 4, seed=12)
    _, pids = pooled_run(problem)
    started = count_thread_starts(monkeypatch)
    result, again = pooled_run(problem)
    assert again == pids and started == ["repro-procs-linger"]
    assert np.array_equal(result.grid, problem.reference_solution())


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
    assert reader.poll(30), f"the doomed parent sent no pids (exit code {parent.exitcode})"
    pids = reader.recv()
    parent.join(30)
    assert parent.exitcode == 0 and len(pids) == 2
    assert wait_gone(pids, 10)


# -- what is not described forks, as before -----------------------------------------


@pytest.mark.parametrize("case", ["closures", "chaos", "memfd"])
def test_what_cannot_be_described_leaves_no_child(case, monkeypatch):
    problem, knobs = picklable_problem(24, 4, seed=4), {}
    if case == "closures":
        problem = random_problem(24, 4, seed=4)
    elif case == "chaos":
        plan = parse_plan("drop:src=0,dst=1,step=2,secs=0.01", seed=0)
        knobs["chaos"] = ChaosContext(FaultInjector(plan, s=1))
    else:
        monkeypatch.delattr(os, "memfd_create")
    close_pools()
    result, _ = pooled_run(problem, **knobs)
    assert np.array_equal(result.grid, problem.reference_solution())
    assert leftovers()[0] == []  # reaped before run() returned


def test_a_stencil_run_whose_strips_exceed_a_quarter_ring_is_pooled(monkeypatch):
    """A stencil graph's records are 16-byte ready records whatever its
    strips declare: a run whose strips exceed a quarter of a ring is
    dispatched to a pool as any other."""
    monkeypatch.setattr(procs, "RING_BYTES", 128)
    close_pools()
    problem = picklable_problem(24, 4, seed=4)
    first, pids = pooled_run(problem)
    assert max(nbytes for messages in first.graph.message_plan().values()
               for _tag, _dst, nbytes in messages) > procs.RING_BYTES // 4
    second, again = pooled_run(problem)
    assert again == pids and all(map(_pid_running, pids))
    truth = problem.reference_solution()
    assert np.array_equal(first.grid, truth) and np.array_equal(second.grid, truth)
    assert second.messages == second.graph.census().remote_messages


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
    plain = ProcessExecutor.run
    runs, nodes = [], []

    def logged(self):
        report = plain(self)
        runs.append(pids_of(self))
        nodes.extend(self.processes)
        return report

    monkeypatch.setattr(ProcessExecutor, "run", logged)
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
