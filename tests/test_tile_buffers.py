"""Tile buffer lifetime and allocation budget of the stencil data path.

A stencil task pastes its ghosts into its input tile, writes its output
into its worker thread's spare -- the input of the task that thread ran
last -- and leaves its own input behind as the next spare; a tile's
last task writes the core into the build's result grid instead.  These
tests pin what makes that safe (only the declared ghost cells of an
input are written, no spare or tile outlives a run, a fresh executor on
the same build starts clean) and that the allocations it removed do not
creep back.
"""

import gc
import queue
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.exec import fork_available
from repro.exec.executor import ThreadedExecutor
from repro.exec.futures import RunCancelled
from repro.exec.procs import ProcessExecutor
from repro.ir import PassContext, PassManager, parse_pipeline
from repro.machine.machine import nacl
from repro.runtime.engine import Engine
from repro.stencil.kernels import StencilWeights
from repro.stencil.problem import JacobiProblem
from repro.stencil.reference import jacobi_reference

from .conftest import random_problem

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")


def kernels_of(built):
    """The one StencilKernels instance behind a freshly built graph."""
    return next(iter(built.graph)).kernel.__self__


def build(problem, machine, variant):
    if variant == "base":
        return build_base_graph(problem, machine, tile=6)
    return build_ca_graph(problem, machine, tile=6, steps=4)


def instrument(built, kernels):
    """Wrap every task before any pass sees it: collect a weak reference
    to each tile buffer published, and fail the run -- in whichever
    process or thread it happens -- if a last-sweep task publishes an
    array or leaves a spare of its tile's shape behind on its thread."""
    t_last = built.spec.problem.iterations - 1
    tiles = []

    def wrapped(inner, last):
        def kernel(inputs, task):
            out = inner(inputs, task)
            if not last:
                tiles.append(weakref.ref(out["tile"]))
                return out
            name, i, j, t = task.key
            if list(arrays_in(out.values())):
                raise AssertionError(f"{task.key} published an array: {out}")
            if inputs[((name, i, j, t - 1), "tile")].shape in kernels._local.spare:
                raise AssertionError(f"{task.key} left a spare past the last sweep")
            return out
        return kernel

    for task in built.graph:
        task.kernel = wrapped(task.kernel, task.key[-1] == t_last)
    return tiles


def arrays_in(payloads):
    for payload in payloads:
        if isinstance(payload, dict):
            yield from arrays_in(payload.values())
        elif isinstance(payload, np.ndarray):
            yield payload


BACKENDS = [
    "sim",
    "threads",
    pytest.param("processes", marks=needs_fork),
]


@pytest.mark.timeout(120)
@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("variant,passes", [
    ("base", None),
    ("ca", None),             # steps=4 does not divide the 10 iterations
    ("ca", "fuse,coarsen"),
])
def test_complete_run_pins_no_tile_memory_and_empties_the_store(backend, variant, passes):
    problem = random_problem(n=24, iterations=10, seed=3)
    machine = nacl(4)
    built = build(problem, machine, variant)
    tiles = instrument(built, kernels_of(built))
    if passes:
        built, _ = PassManager(parse_pipeline(passes)).run(
            built, PassContext(machine=machine, with_kernels=True))
    if backend == "sim":
        executor = Engine(built.graph, machine, execute=True)
    elif backend == "threads":
        executor = ThreadedExecutor(built.graph, jobs=3)
    else:
        executor = ProcessExecutor(built.graph, procs=machine.nodes, jobs=1)
    report = executor.run()
    grid = built.assemble_grid(report.results)
    assert grid is built.grid
    assert np.array_equal(grid, problem.reference_solution())
    # One token per final tile, and nothing tile-sized came back.
    assert set(report.results) == set(built.final_keys())
    assert list(arrays_in(report.results.values())) == []
    if backend == "processes":
        return  # the node processes' tiles and stores died with them
    assert len(executor._store) == 0
    # The graph, its kernels and the executor are all still here, yet
    # none of the buffers the 16 * 10 array publications went through
    # is alive: the grid is the only tile-sized memory left.
    assert len(tiles) == 16 * 10
    gc.collect()
    assert [ref() for ref in tiles if ref() is not None] == []


def sweep_by_hand(built, call):
    """Run the graph in topological order against a plain dict, freezing
    outputs the way the payload store does; ``call(task, inputs)`` runs
    each kernel.  Returns every payload."""
    graph = built.graph
    payloads = {}
    for key in graph.topological_order():
        task = graph[key]
        inputs = {(f.producer, f.tag): payloads[(f.producer, f.tag)]
                  for f in task.inputs}
        outputs = call(task, inputs)
        for tag, payload in outputs.items():
            if isinstance(payload, np.ndarray):
                payload.setflags(write=False)
            payloads[(key, tag)] = payload
    return payloads


@pytest.mark.parametrize("variant", ["base", "ca"])
def test_inputs_are_intact_and_read_only_when_the_kernel_returns(variant):
    problem = random_problem(n=24, iterations=7, seed=1)
    built = build(problem, nacl(4), variant)
    buffers = {}  # id -> array, kept alive so an id names one buffer
    fresh_by_sweep = {}
    plan = built.spec.exchange_plan()

    def checked_call(task, inputs):
        name, i, j, t = task.key
        own = ((name, i, j, t - 1), "tile")
        before = {k: v.copy() for k, v in inputs.items()}
        outputs = task.kernel(inputs, task)
        arrays = list(arrays_in(outputs.values()))
        for k, payload in inputs.items():
            assert not payload.flags.writeable
            assert all(not np.shares_memory(payload, out) for out in arrays)
            if k != own:  # a strip or a corner
                assert payload.tobytes() == before[k].tobytes(), f"{task.key} wrote input {k}"
        if task.inputs:
            # The task's own tile: the declared ghost cells hold the
            # declared values, every other byte is as it came.
            expected, pasted = before[own], np.zeros(before[own].shape, bool)
            for (pi, pj), tag, _, dest, _, _ in plan[(i, j)][t % built.spec.steps].incoming:
                expected[dest] = inputs[((name, pi, pj, t - 1), tag)]
                pasted[dest] = True
            assert pasted.any() and not pasted.all()
            assert inputs[own].tobytes() == expected.tobytes()
        tile = outputs["tile"]
        if isinstance(tile, np.ndarray):  # not the last sweep's token
            if id(tile) not in buffers:
                fresh_by_sweep[t] = fresh_by_sweep.get(t, 0) + 1
            buffers[id(tile)] = tile
        return outputs

    payloads = sweep_by_hand(built, checked_call)
    # One thread ran everything: after the 16 initial tiles it allocated
    # a spare per tile shape in sweep 0 and recycled inputs from then
    # on; the last sweep (for "ca" one that declares a halo extension:
    # 6 % 4 != 3) wrote the grid, published no array and dropped the
    # spares.
    shapes = {t.ext_shape() for t in built.spec.tiles()}
    assert fresh_by_sweep == {-1: 16, 0: len(shapes)}
    assert kernels_of(built)._local.spare == {}
    finals = {k: payloads[k] for k in built.final_keys()}
    assert list(arrays_in(finals.values())) == []
    assert np.array_equal(built.assemble_grid(finals), problem.reference_solution())


def test_running_the_same_task_twice_never_writes_its_input():
    """The spare a first call leaves behind *is* the second call's
    input; the kernel must not take it, and pasting the same ghosts
    again changes nothing."""
    problem = random_problem(n=12, iterations=4, seed=2)
    built = build(problem, nacl(4), "base")
    graph = built.graph
    payloads = {}
    for key in graph.topological_order():
        task = graph[key]
        if task.key[-1] > 0:
            continue
        inputs = {(f.producer, f.tag): payloads[(f.producer, f.tag)]
                  for f in task.inputs}
        first = task.kernel(inputs, task)
        if task.inputs:
            before = {k: v.tobytes() for k, v in inputs.items()}
            again = task.kernel(inputs, task)
            assert all(inputs[k].tobytes() == before[k] for k in inputs)
            assert again["tile"].tobytes() == first["tile"].tobytes()
        for tag, payload in first.items():
            payload.setflags(write=False)
            payloads[(key, tag)] = payload


@pytest.mark.timeout(120)
def test_reset_and_rerun_of_the_same_graph_is_bit_identical():
    """A "reset" is a fresh executor on the same graph: its kernels
    keep their spares from the previous run and must still be right."""
    problem = random_problem(n=24, iterations=9, seed=5)
    built = build(problem, nacl(4), "ca")
    truth = problem.reference_solution()
    for _ in range(3):
        report = ThreadedExecutor(built.graph, jobs=2).run()
        assert np.array_equal(built.assemble_grid(report.results), truth)


@pytest.mark.timeout(120)
def test_cancelled_run_then_reset_and_full_run_is_bit_identical():
    problem = random_problem(n=24, iterations=12, seed=6)
    built = build(problem, nacl(4), "base")

    # Cancel from inside a mid-run task: every worker holds a spare then.
    trigger = built.graph[(built.name, 1, 1, 6)]
    plain = trigger.kernel
    handles = queue.Queue()

    def cancelling(inputs, task):
        handles.get(timeout=30).cancel()
        return plain(inputs, task)

    trigger.kernel = cancelling
    handle = ThreadedExecutor(built.graph, jobs=2).start()
    handles.put(handle)
    with pytest.raises(RunCancelled):
        handle.result(timeout=60)

    trigger.kernel = plain
    report = ThreadedExecutor(built.graph, jobs=2).run()
    assert np.array_equal(built.assemble_grid(report.results),
                          problem.reference_solution())


# -- allocation budget (tracemalloc sees numpy's array data) ---------------


def test_a_steady_state_stencil_task_allocates_less_than_half_a_tile():
    problem = JacobiProblem(n=512, iterations=6)
    built = build_base_graph(problem, nacl(1), tile=256)
    tile_bytes = 256 * 256 * 8
    peaks = []

    def traced_call(task, inputs):
        # Sweep 0 allocates the spare; sweeps 1-4 are the steady state
        # and the last one writes the grid, which exists since the build.
        if task.key[-1] < 1:
            return task.kernel(inputs, task)
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            outputs = task.kernel(inputs, task)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak - base)
        return outputs

    payloads = sweep_by_hand(built, traced_call)
    assert len(peaks) == 5 * 4
    assert max(peaks) < tile_bytes // 2, f"a task allocated {max(peaks)} B"
    assert np.array_equal(
        built.assemble_grid({k: payloads[k] for k in built.final_keys()}),
        problem.reference_solution())


@pytest.mark.parametrize("weights", [StencilWeights(), StencilWeights.damped_jacobi(0.8)])
def test_reference_sweeps_allocate_nothing_grid_sized(weights):
    """Two framed buffers for the whole solve (the result is copied out
    after one is dropped): the peak does not depend on the sweep count
    and stays under two and a half grids."""
    grid = np.random.default_rng(0).random((512, 512))
    grid_bytes = grid.nbytes
    jacobi_reference(grid, weights, 1)  # band scratch exists from here on
    peaks = {}
    for sweeps in (1, 8):
        tracemalloc.start()
        try:
            base, _ = tracemalloc.get_traced_memory()
            jacobi_reference(grid, weights, sweeps)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks[sweeps] = peak - base
    assert peaks[8] < 2.5 * grid_bytes, peaks
    assert abs(peaks[8] - peaks[1]) < grid_bytes // 2, peaks
