"""Tile buffer lifetime and allocation budget of the stencil data path.

A stencil task writes its output into its worker thread's spare -- the
input of the task that thread ran last -- and leaves its own input
behind as the next spare.  These tests pin what makes that safe
(inputs are never written, no spare outlives a run, a re-armed
executor starts clean) and that the allocations it removed do not
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
    process or thread it happens -- if a last-sweep task leaves a spare
    of its shape behind on its thread."""
    t_last = built.spec.problem.iterations - 1
    tiles = []

    def wrapped(inner, last):
        def kernel(inputs, task):
            out = inner(inputs, task)
            tiles.append(weakref.ref(out["tile"]))
            if last and out["tile"].shape in kernels._local.spare:
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
    assert np.array_equal(built.assemble_grid(report.results),
                          problem.reference_solution())
    if backend == "processes":
        return  # the node processes' tiles and stores died with them
    assert len(executor._store) == 0
    # The graph, its kernels and the executor are all still here, yet of
    # the buffers the 16 * 11 publications went through only the final
    # tiles are alive.
    assert len(tiles) == 16 * 11
    results = {id(a) for a in arrays_in(report.results.values())}
    gc.collect()
    alive = {id(a) for a in (ref() for ref in tiles) if a is not None}
    assert len(alive) == 16 and alive <= results


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
            payload.setflags(write=False)
            payloads[(key, tag)] = payload
    return payloads


@pytest.mark.parametrize("variant", ["base", "ca"])
def test_inputs_are_intact_and_read_only_when_the_kernel_returns(variant):
    problem = random_problem(n=24, iterations=7, seed=1)
    built = build(problem, nacl(4), variant)
    buffers = {}  # id -> array, kept alive so an id names one buffer
    fresh_by_sweep = {}

    def checked_call(task, inputs):
        before = {k: v.tobytes() for k, v in inputs.items()}
        outputs = task.kernel(inputs, task)
        for k, payload in inputs.items():
            assert payload.tobytes() == before[k], f"{task.key} wrote input {k}"
            assert not payload.flags.writeable
            assert all(not np.shares_memory(payload, out) for out in outputs.values())
        tile = outputs["tile"]
        if id(tile) not in buffers:
            fresh_by_sweep[task.key[-1]] = fresh_by_sweep.get(task.key[-1], 0) + 1
        buffers[id(tile)] = tile
        return outputs

    payloads = sweep_by_hand(built, checked_call)
    # One thread ran everything: after the 16 initial tiles it allocated
    # a spare per tile shape in sweep 0, recycled inputs from then on,
    # and the last sweep -- which takes spares but leaves none --
    # allocated the rest of its outputs.
    shapes = {t.ext_shape() for t in built.spec.tiles()}
    assert fresh_by_sweep == {-1: 16, 0: len(shapes), 6: 16 - len(shapes)}
    assert kernels_of(built)._local.spare == {}
    final = built.assemble_grid({k: payloads[k] for k in built.final_keys()})
    assert np.array_equal(final, problem.reference_solution())


def test_running_the_same_task_twice_never_writes_its_input():
    """The spare a first call leaves behind *is* the second call's
    input; the kernel must not take it."""
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
        # Sweep 0 allocates the spare and the scratch, the last sweep
        # its results; sweeps 1-4 are the steady state.
        if not 1 <= task.key[-1] < 5:
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
    assert len(peaks) == 4 * 4
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
