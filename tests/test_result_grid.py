"""The one result grid of a stencil build: who owns it, how long it
lives, what crosses the control pipe instead of it.

A build made with kernels allocates one float64 grid over an anonymous
shared mapping; the task that produces a tile's final values writes the
core into it and reports a token.  These tests pin the ownership rules
(the array keeps the mapping alive, nothing else does), the failure
rule (a grid some tile did not report into is never returned), the
edge cases of "the final producer" and that what a node process ships
home is O(tasks), not O(grid).
"""

from __future__ import annotations

import gc
import mmap
import multiprocessing
import os
import pickle
import queue
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.dataflow import IN_GRID
from repro.core.runner import run
from repro.distgrid.partition import ProcessGrid
from repro.exec import fork_available
from repro.exec.executor import ThreadedExecutor
from repro.exec.futures import RunCancelled
from repro.exec.procs import ProcessExecutor, _Channels, _node_main
from repro.machine.machine import nacl
from repro.obs import MetricRegistry
from repro.runtime.engine import Engine
from repro.serve import ResultCache, ServiceConfig, SolverClient, SolverService
from repro.serve.request import SolveOutcome
from repro.stencil.problem import JacobiProblem
from repro.stencil.variable import VariableStencilWeights

from .conftest import random_problem, shared_mappings
from .serve_helpers import random_problem as picklable_problem
from .test_tile_buffers import arrays_in

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
pytestmark = pytest.mark.timeout(300)


# -- ownership and lifetime -------------------------------------------------


@pytest.mark.parametrize("backend", [
    "sim", "threads", pytest.param("processes", marks=needs_fork)])
def test_grid_outlives_the_run_and_the_mapping_goes_with_the_array(backend):
    problem = random_problem(n=24, iterations=5, seed=4)
    truth = problem.reference_solution()
    before = shared_mappings()
    result = run(problem, nacl(4), impl="ca-parsec", tile=6, steps=3,
                 mode="execute", backend=backend,
                 **({"jobs": 1} if backend != "sim" else {}))
    grid = result.grid
    mapping = weakref.ref(grid.base)
    assert isinstance(grid.base, mmap.mmap)
    del result  # the RunResult, its graph, kernels and report
    assert shared_mappings() == before + 1
    assert np.array_equal(grid, truth)
    grid[0, 0] = 42.0  # the caller's to write
    assert grid[0, 0] == 42.0
    del grid
    gc.collect()
    assert mapping() is None
    assert shared_mappings() == before


@pytest.mark.parametrize("backend", [
    "sim", "threads", pytest.param("processes", marks=needs_fork)])
def test_kept_results_hold_their_grids_not_open_files(backend):
    """A build's memfd is there to dispatch its run to a node pool; once
    ``run()`` returns, the result it hands back holds no descriptor."""
    problem = picklable_problem(24, 3, seed=11)
    shared_mappings()  # closes idle pools, collects
    before = len(os.listdir("/proc/self/fd"))
    results = [run(problem, nacl(2), tile=6, mode="execute", backend=backend)
               for _ in range(40)]
    shared_mappings()  # the pool these runs kept closes too
    assert len(os.listdir("/proc/self/fd")) == before
    assert all(np.array_equal(r.grid, results[0].grid) for r in results)
    assert results[0].graph.recipe is None or not results[0].graph.recipe.describes(
        results[0].graph)


def test_a_build_run_twice_overwrites_its_own_grid():
    problem = random_problem(n=24, iterations=5, seed=5)
    built = build_base_graph(problem, nacl(4), tile=6)
    first = built.assemble_grid(ThreadedExecutor(built.graph, jobs=2).run().results)
    first[:] = -1.0
    second = built.assemble_grid(ThreadedExecutor(built.graph, jobs=2).run().results)
    assert second is first is built.grid
    assert np.array_equal(second, problem.reference_solution())


def test_simulate_mode_allocates_no_grid():
    before = shared_mappings()
    # The paper's grid: 23040^2 doubles would be 4 GiB.
    built = build_base_graph(JacobiProblem(n=23040, iterations=1), nacl(4),
                             tile=2880, with_kernels=False)
    assert built.grid is None
    assert shared_mappings() == before
    assert run(JacobiProblem(n=48, iterations=2), nacl(4), tile=12).grid is None


def test_incomplete_results_never_return_the_grid():
    problem = random_problem(n=24, iterations=3, seed=6)
    built = build_base_graph(problem, nacl(4), tile=6)
    # A node-block task reports for all of its tiles: node 0's boundary
    # task first, then its interior one, node by node.
    with pytest.raises(RuntimeError, match=r"tiles \(0, 1\), \(1, 0\), \(1, 1\) did not report"):
        built.assemble_grid({})
    results = ThreadedExecutor(built.graph, jobs=1).run().results
    assert built.assemble_grid(results) is built.grid
    key = built.final_keys()[5]  # node 2's interior task
    partial = {k: v for k, v in results.items() if k != key}
    with pytest.raises(RuntimeError, match=r"tile \(3, 0\) did not report"):
        built.assemble_grid(partial)
    # An old-style payload is not a report either.
    with pytest.raises(RuntimeError, match=r"tile \(3, 0\)"):
        built.assemble_grid({**results, key: None})


def test_cancelled_run_raises_instead_of_returning_a_half_written_grid():
    problem = random_problem(n=24, iterations=6, seed=7)
    built = build_base_graph(problem, nacl(4), tile=6)
    # The first last-sweep task to run cancels, then lands its core:
    # one core is in the grid, fifteen are not.
    handles, fired = queue.Queue(), []

    def cancelling(plain):
        def kernel(inputs, task):
            if not fired:  # one worker: no race
                fired.append(task.key)
                handles.get(timeout=30).cancel()
            return plain(inputs, task)
        return kernel

    for task in built.graph:
        if task.key[-1] == 5:
            task.kernel = cancelling(task.kernel)
    executor = ThreadedExecutor(built.graph, jobs=1, policy="fifo")
    handle = executor.start()
    handles.put(handle)
    with pytest.raises(RunCancelled):
        handle.result(timeout=60)
    assert 0 < len(executor._store.results) < 16
    with pytest.raises(RuntimeError, match="did not report"):
        built.assemble_grid(executor._store.results)


# -- the final producer, case by case ----------------------------------------


def wavy(rows, cols):
    return 0.01 * np.sin(0.3 * rows) * np.cos(0.2 * cols)


def solve(problem, machine, backend, **build):
    builder = build_ca_graph if "steps" in build else build_base_graph
    built = builder(problem, machine, **build)
    if backend == "sim":
        report = Engine(built.graph, machine, execute=True).run()
    elif backend == "threads":
        report = ThreadedExecutor(built.graph, jobs=2).run()
    else:
        report = ProcessExecutor(built.graph, procs=machine.nodes, jobs=1).run()
    assert set(report.results) == set(built.final_keys())
    assert list(arrays_in(report.results.values())) == []
    return built.assemble_grid(report.results)


BACKENDS = ["sim", "threads", pytest.param("processes", marks=needs_fork)]


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("steps", [None, 3])
def test_zero_iterations_the_init_task_is_the_final_producer(backend, steps):
    problem = random_problem(n=20, iterations=0, seed=8, ncols=30)
    build = dict(tile=6, steps=steps) if steps else dict(tile=6)
    grid = solve(problem, nacl(4), backend, **build)
    assert np.array_equal(grid, problem.initial_grid())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("iterations", [1, 4, 5, 6])  # (T-1) % 3 == 0, 0, 1, 2
def test_ca_last_sweep_at_every_phase_updates_the_core_only(backend, iterations):
    """Only phase ``steps - 1`` declares a core-only update; at the
    others the last sweep's halo extension has no reader and is skipped."""
    problem = random_problem(n=24, iterations=iterations, seed=9)
    grid = solve(problem, nacl(4), backend, tile=6, steps=3)
    assert np.array_equal(grid, problem.reference_solution())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("steps", [None, 3])
def test_source_and_variable_weights_on_the_last_sweep(backend, steps):
    base = random_problem(n=24, iterations=5, seed=10)
    weights = VariableStencilWeights.from_diffusivity(
        lambda r, c: 1.0 + 0.5 * np.sin(0.2 * r) * np.cos(0.1 * c), dt_h2=0.1)
    problem = JacobiProblem(n=24, iterations=5, init=base.init, bc=base.bc,
                            weights=weights, source=wavy)
    build = dict(tile=6, steps=steps) if steps else dict(tile=6)
    grid = solve(problem, nacl(4), backend, **build)
    assert np.array_equal(grid, problem.reference_solution())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("steps", [None, 2])
def test_non_square_grid_with_ragged_tiles(backend, steps):
    problem = random_problem(n=27, iterations=5, seed=11, ncols=38)
    machine = nacl(6)
    build = dict(tile=5, pgrid=ProcessGrid(3, 2))
    if steps:
        build["steps"] = steps
    grid = solve(problem, machine, backend, **build)
    assert grid.shape == (27, 38)
    assert np.array_equal(grid, problem.reference_solution())


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("impl,passes", [
    ("ca-parsec", "coarsen"),
    ("base-parsec", "coarsen"),
    ("ca-parsec", None),
])
def test_composites_keep_one_result_slot_per_final_tile(backend, impl, passes):
    problem = random_problem(n=24, iterations=7, seed=12)
    knobs = dict(impl=impl, tile=6, mode="execute", backend=backend, passes=passes)
    if impl == "ca-parsec":
        knobs["steps"] = 3
    if backend != "sim":
        knobs["jobs"] = 1
    result = run(problem, nacl(4), **knobs)
    assert np.array_equal(result.grid, problem.reference_solution())
    finals = {k: v for k, v in result.engine.results.items() if k[1] == "tile"}
    # One per tile on the simulator's graph; on the real backends one
    # per node-block task: a boundary and an interior one per node on
    # processes, the one block of the grid on threads.
    assert len(finals) == {"sim": 16, "threads": 1, "processes": 4 * 2}[backend]
    assert set(finals.values()) == {IN_GRID}


# -- faults --------------------------------------------------------------------


@needs_fork
def test_cancelled_processes_run_leaves_no_mapping_behind():
    problem = random_problem(n=48, iterations=40, seed=14)
    before = shared_mappings()
    built = build_base_graph(problem, nacl(2), tile=6)
    executor = ProcessExecutor(built.graph, procs=2, jobs=1)
    handle = executor.start()
    while executor.progress()["done"] < 50:
        time.sleep(0.001)
    handle.cancel()
    with pytest.raises(RunCancelled):
        handle.result(timeout=60)
    assert shared_mappings() == before + 1  # the rings are unmapped
    del built, executor, handle
    assert shared_mappings() == before
    assert multiprocessing.active_children() == []


# -- through pickle and the cache ------------------------------------------------


def test_grid_pickles_and_caches_as_a_private_equal_array(tmp_path):
    problem = random_problem(n=24, iterations=3, seed=15)
    grid = run(problem, nacl(4), tile=6, mode="execute").grid
    clone = pickle.loads(pickle.dumps(grid))
    assert np.array_equal(clone, grid) and not np.shares_memory(clone, grid)
    assert not isinstance(clone.base, mmap.mmap)
    outcome = SolveOutcome(signature="sig", impl="base-parsec", elapsed=0.1,
                           gflops=1.0, messages=0, message_bytes=0, params={}, grid=grid)
    ResultCache(tmp_path).put("sig", outcome)
    loaded = ResultCache(tmp_path).get("sig").grid  # cold: from disk
    assert np.array_equal(loaded, grid) and not np.shares_memory(loaded, grid)
    assert not isinstance(loaded.base, mmap.mmap)


@needs_fork
def test_grid_comes_home_through_the_serve_worker_pipe():
    problem = picklable_problem(24, 4, seed=16)
    before = shared_mappings()
    with SolverService(ServiceConfig(pool="processes", workers=1,
                                     cache=False)) as service:
        outcome = SolverClient(service).solve(problem, tile=6, timeout=120)
    assert np.array_equal(outcome.grid, problem.reference_solution())
    assert not isinstance(outcome.grid.base, mmap.mmap)  # the child's died with it
    assert outcome.grid.flags.writeable
    assert shared_mappings() == before


# -- what a node ships home ------------------------------------------------------


def done_messages(n: int, ncols: int, tile: int) -> list[dict]:
    """The ``("done", stats)`` payload of each node of the toy
    ``halo_base`` geometry scaled to ``tile``, ``trace=False``: the node
    mains run here as threads, against real channels and pipes."""
    problem = JacobiProblem(n=n, ncols=ncols, iterations=8, init=0.5)
    built = build_base_graph(problem, nacl(2), tile=tile)
    ctx = multiprocessing.get_context("fork")
    channels = _Channels(built.graph, 2, ctx)
    pipes = [ctx.Pipe(duplex=True) for _ in range(2)]
    nodes = [
        threading.Thread(target=_node_main, args=(
            node, built.graph, channels, 1, "priority", False,
            time.perf_counter(), pipes[node][1], [], None))
        for node in range(2)
    ]
    for thread in nodes:
        thread.start()
    replies = [parent.recv() for parent, _ in pipes]
    for thread in nodes:
        thread.join(30)
    for parent, child in pipes:  # EOF wakes the control threads
        parent.close()
    assert [kind for kind, _ in replies] == ["done", "done"]
    stats = [reply[1] for reply in replies]
    results = {k: v for s in stats for k, v in s["results"].items()}
    assert np.array_equal(built.assemble_grid(results), problem.reference_solution())
    return stats


@needs_fork
def test_what_a_node_ships_home_is_o_tasks_not_o_grid(monkeypatch):
    small = done_messages(256, 32, 16)
    large = done_messages(512, 64, 32)  # same task keys, tiles of 4x the area
    for stats in small + large:
        assert b"numpy" not in pickle.dumps(stats)  # no array, however nested
        # One token per final task: each node's 16 tiles all face the
        # other node, so they are one boundary task.
        assert len(stats["results"]) == 1
        assert set(stats["results"].values()) == {IN_GRID}
    assert [s["completed"] for s in small] == [s["completed"] for s in large]
    for a, b in zip(small, large):
        # The same bytes but for the width pickle gives the two byte
        # tallies of ``by_dst``, which grow with the strips.
        size_a, size_b = len(pickle.dumps(a)), len(pickle.dumps(b))
        assert abs(size_b - size_a) <= 4, (size_a, size_b)
        assert size_a < 16 * 16 * 16 * 8  # under the node's 16 small cores

    # A registry on the executor never reaches a node: its series are a
    # fold of the report the parent builds from these same messages.
    shipped = {}
    build_report = ProcessExecutor._build_report

    def spy(self, outcomes, t_end):
        shipped[self.metrics is not None] = outcomes
        return build_report(self, outcomes, t_end)

    monkeypatch.setattr(ProcessExecutor, "_build_report", spy)
    graph = build_base_graph(JacobiProblem(n=256, ncols=32, iterations=8, init=0.5),
                             nacl(2), tile=16).graph
    plain = ProcessExecutor(graph, procs=2, jobs=1).run()
    counted = ProcessExecutor(graph, procs=2, jobs=1, metrics=MetricRegistry()).run()
    assert plain.metrics is None
    assert counted.metrics.counter("messages_total") == counted.messages == 256
    for node in range(2):
        bare, instrumented = (pickle.dumps(shipped[flag][node]) for flag in (False, True))
        assert shipped[True][node][0] == "done"
        assert set(shipped[True][node][1]) == set(shipped[False][node][1])
        assert b"MetricsSnapshot" not in instrumented
        assert len(instrumented) <= len(bare)


@needs_fork
def test_procs_report_holds_tokens_and_the_message_counts_are_the_pinned_ones():
    """Results were never messages: the counters the benchmark pins are
    exactly `tests/test_dataflow.py::PINNED`'s, at the toy size."""
    problem = JacobiProblem(n=256, ncols=32, iterations=8, init=0.5)
    built = build_base_graph(problem, nacl(2), tile=16)
    census = built.graph.census()
    report = ProcessExecutor(built.graph, procs=2, jobs=1).run()
    assert set(report.results) == set(built.final_keys())
    assert set(report.results.values()) == {IN_GRID}
    assert (report.messages, report.message_bytes) == (
        census.remote_messages, census.remote_bytes) == (256, 256 * 16 * 8)
    assert report.wire_bytes == 256 * 16  # a ready record each: the strips land in slots
