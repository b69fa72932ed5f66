"""Storage and allocation budget of the stencil data path.

Every sweep of every node block updates in place inside the build's
result grid; a tile's pads toward another block are slots of the
landing store, which shares the grid's mapping.  A task updates its
tiles in place, saves the seams its neighbours read next sweep and
writes the strips its consumers in other blocks read straight into
their landing slots; every flow carries a token.  These tests pin what
makes that safe (inputs stay intact, a fresh executor on the same
build starts clean), that no backend allocates a node buffer -- not the
simulator, not a ``threads`` worker, not a node process, not the
``processes`` parent -- and that the allocations the one-grid rule
removed do not creep back: a solve holds one grid.
"""

import mmap
import tracemalloc

import numpy as np
import pytest

from repro.chaos import ChaosContext, CheckpointStore, FaultInjector, parse_plan
from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.dataflow import IN_GRID, StencilKernels
from repro.core.runner import run
from repro.exec import fork_available, procs
from repro.exec.executor import ThreadedExecutor
from repro.exec.procs import ProcessExecutor
from repro.machine.machine import nacl
from repro.runtime.engine import Engine
from repro.runtime.report import RunCancelled
from repro.runtime.task import READY
from repro.stencil.kernels import StencilWeights
from repro.stencil.problem import JacobiProblem
from repro.stencil.reference import jacobi_reference
from repro.stencil.variable import BAND_CELLS

from .conftest import random_problem, run_on_thread, shared_mappings

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")


def kernels_of(built):
    """The one StencilKernels instance behind a freshly built graph."""
    return next(iter(built.graph)).kernel.__self__


def build(problem, machine, variant):
    if variant == "base":
        return build_base_graph(problem, machine, tile=6)
    return build_ca_graph(problem, machine, tile=6, steps=4)


def instrument(built):
    """Wrap every task before any pass sees it: fail the run -- in
    whichever process or thread it happens -- if a last-sweep task
    publishes anything but its grid token, or any task anything but
    tokens.  Returns the list the wrapped tasks count themselves in."""
    t_last = built.spec.problem.iterations - 1
    ran = []

    def wrapped(inner, last):
        def kernel(inputs, task):
            out = inner(inputs, task)
            if last and out != {"tile": IN_GRID}:
                raise AssertionError(f"{task.key} published {out}")
            if not last and set(out.values()) != {READY}:
                raise AssertionError(f"{task.key} published {out}")
            ran.append(task.key)
            return out
        return kernel

    for task in built.graph:
        task.kernel = wrapped(task.kernel, task.key[-1] == t_last)
    return ran


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
# The ids keep the names the cases had when a second parameter named a pass.
@pytest.mark.parametrize("variant", [
    pytest.param("base", id="base-None"),
    pytest.param("ca", id="ca-None"),  # steps=4 does not divide the 10 iterations
])
def test_complete_run_pins_no_tile_memory_and_empties_the_store(backend, variant):
    problem = random_problem(n=24, iterations=10, seed=3)
    machine = nacl(4)
    built = build(problem, machine, variant)
    if backend == "sim":
        built = built.per_tile()  # what the simulator runs
    ran = instrument(built)
    if backend == "sim":
        executor = Engine(built.graph, machine, execute=True)
    elif backend == "threads":
        executor = ThreadedExecutor(built.graph, jobs=3)
    else:
        executor = ProcessExecutor(built.graph, procs=machine.nodes, jobs=1)
    report = executor.run()
    seams = len(built.kernels.seams)
    grid = built.assemble_grid(report.results)
    assert grid is built.grid
    assert np.array_equal(grid, problem.reference_solution())
    # One token per final task, and nothing tile-sized came back.
    assert set(report.results) == set(built.final_keys())
    assert list(arrays_in(report.results.values())) == []
    if backend == "processes":
        return  # the node processes' seams and stores died with them
    assert len(executor._store) == 0 and ran
    # The graph, its kernels and the executor are all still here; every
    # payload was a token, and the seam stores went once the grid was
    # assembled: the grid and its landing store are all that is left.
    assert seams == machine.nodes and built.kernels.seams == {}


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
    kernels = kernels_of(built)
    landed = 0

    def checked_call(task, inputs):
        nonlocal landed
        t = task.key[-1]
        before = {k: v.copy() for k, v in inputs.items() if isinstance(v, np.ndarray)}
        outputs = task.kernel(inputs, task)
        arrays = list(arrays_in(outputs.values()))
        assert arrays == [] and before == {}
        assert set(inputs.values()) <= {READY}  # every flow is a token
        if t >= 0:
            # Every strip the plan reads from a landing slot was marked ready.
            plan = kernels.plans[task.key[:-1]]
            for producer, flow, _nbytes, parts in plan.phases[t % built.spec.steps].edges:
                assert inputs[(producer + (t - 1,), flow)] == READY
                landed += len(parts)
        return outputs

    payloads = sweep_by_hand(built, checked_call)
    assert landed > 0
    finals = {k: payloads[k] for k in built.final_keys()}
    assert list(arrays_in(finals.values())) == []
    assert np.array_equal(built.assemble_grid(finals), problem.reference_solution())


def test_running_the_same_task_twice_never_writes_its_input():
    """A task never writes its inputs: running it again leaves the
    copies it read as they were, and publishes the same outputs.  (Its
    values differ: an in-place sweep run twice is two sweeps.)"""
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
            before = {k: v.tobytes() for k, v in inputs.items() if isinstance(v, np.ndarray)}
            again = task.kernel(inputs, task)
            assert all(inputs[k].tobytes() == before[k] for k in before)
            assert list(again) == list(first)
            for tag, payload in first.items():
                assert np.shape(again[tag]) == np.shape(payload)
        for tag, payload in first.items():
            if isinstance(payload, np.ndarray):
                payload.setflags(write=False)
            payloads[(key, tag)] = payload


@pytest.mark.timeout(120)
def test_reset_and_rerun_of_the_same_graph_is_bit_identical():
    """A "reset" is a fresh executor on the same graph: its kernels
    keep their seams and landing slots from the previous run and must
    still be right."""
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

    # Cancel from inside a mid-run task: the grid is half-swept then.
    trigger = built.graph[(built.name, 3, "boundary", 6)]
    plain = trigger.kernel

    def cancelling(inputs, task):
        assert executor.cancel()
        return plain(inputs, task)

    trigger.kernel = cancelling
    executor = ThreadedExecutor(built.graph, jobs=2)
    with pytest.raises(RunCancelled):
        run_on_thread(executor.run, 60)()

    trigger.kernel = plain
    report = ThreadedExecutor(built.graph, jobs=2).run()
    assert np.array_equal(built.assemble_grid(report.results),
                          problem.reference_solution())


# -- no node buffer, anywhere ---------------------------------------------------


class TaskPeaks:
    """The largest tracemalloc peak of any steady-state stencil task
    body -- sweep 1 on: sweep 0 makes the block's seam store and grows
    the thread's scratch rows -- per node, in shared memory (forked node
    processes write it too).  Patches the kernels' class."""

    def __init__(self, monkeypatch, nodes: int) -> None:
        self.peaks = np.ndarray((nodes,), dtype=np.int64, buffer=mmap.mmap(-1, nodes * 8))
        self.peaks[...] = -1
        body = StencilKernels.stencil_task
        peaks = self.peaks

        def traced(kernels, inputs, task):
            if task.key[-1] < 1:
                return body(kernels, inputs, task)
            tracemalloc.start()
            try:
                base, _ = tracemalloc.get_traced_memory()
                return body(kernels, inputs, task)
            finally:
                peaks[task.node] = max(peaks[task.node],
                                       tracemalloc.get_traced_memory()[1] - base)
                tracemalloc.stop()

        monkeypatch.setattr(StencilKernels, "stencil_task", traced)


@pytest.mark.timeout(120)
@pytest.mark.parametrize("backend", BACKENDS)
def test_node_buffers_die_with_the_run_result(backend, monkeypatch):
    """There are none, on any backend: whatever runs the tasks -- the
    simulator's one-tile tasks, a ``threads`` worker, a node process --
    none allocates anything block-sized, because the cores sweep in the
    result grid and the halo layers in the landing slots, both in the
    build's one mapping.  What a run does make, its seam stores, goes
    once the grid is assembled: a kept result pins its grid."""
    problem = random_problem(n=256, iterations=5, seed=7)
    block_bytes = 128 * 128 * 8  # a 2 x 2 process grid's block
    log = TaskPeaks(monkeypatch, 4)
    knobs = dict(impl="ca-parsec", tile=32, steps=3, mode="execute", backend=backend)
    result = run(problem, nacl(4), **knobs)
    assert np.array_equal(result.grid, problem.reference_solution())
    nodes = {task.node for task in result.graph}
    assert (log.peaks[sorted(nodes)] >= 0).all()
    assert log.peaks.max() < block_bytes // 4, list(log.peaks)
    assert next(iter(result.graph)).kernel.__self__.seams == {}


@pytest.mark.timeout(120)
@pytest.mark.parametrize("wrapped", ["plain", "chaos"])
def test_a_held_threads_result_keeps_no_node_buffer(wrapped, tmp_path):
    """Whether or not a chaos context wrapped the kernels (it also
    checkpoints from the grid during the run), the result a caller
    keeps holds the grid and no buffer: the one node block sweeps in
    the result grid, its seams gone."""
    problem = random_problem(n=48, iterations=6, seed=9)
    knobs = dict(impl="base-parsec", tile=6, backend="threads", jobs=2)
    if wrapped == "chaos":
        knobs["chaos"] = ChaosContext(
            FaultInjector(parse_plan("delay:node=2,step=3,secs=0")),
            store=CheckpointStore(tmp_path), checkpoint_every=2)
    result = run(problem, nacl(4), **knobs)
    kernels = {task.kernel.__self__ for task in result.graph
               if isinstance(getattr(task.kernel, "__self__", None), StencilKernels)}
    assert all(k.seams == {} and k.store.size == 0 for k in kernels)
    assert np.array_equal(result.grid, problem.reference_solution())
    if wrapped == "chaos":
        assert knobs["chaos"].store.complete_steps() == [2, 4]


@needs_fork
@pytest.mark.timeout(120)
def test_the_processes_parent_maps_no_node_buffer():
    """The node processes sweep in the result grid and write the landing
    store, which the build mapped before the fork, in one anonymous
    shared region: the parent's kernels make nothing, and after the run
    the parent maps exactly that one region more than before."""
    problem = random_problem(n=24, iterations=5, seed=8)
    before = shared_mappings()
    result = run(problem, nacl(4), impl="base-parsec", tile=6, backend="processes")
    kernels = next(iter(result.graph)).kernel.__self__
    assert kernels.seams == {} and kernels.store.size > 0
    assert shared_mappings() == before + 1
    assert np.array_equal(result.grid, problem.reference_solution())


# -- allocation budget (tracemalloc sees numpy's array data) ---------------


def test_a_steady_state_stencil_task_allocates_less_than_half_a_tile():
    """A node-block task allocates nothing block- or grid-sized (the
    grid is 2 MiB, a node's block 1-2 MiB): the update runs in place
    and the last sweep into the result grid; what is left is the copies
    it cuts for another node (a 256-cell strip on two nodes), its
    seams' neighbour lines and slicing."""
    problem = JacobiProblem(n=512, iterations=6)
    tile_bytes = 256 * 256 * 8
    for nodes in (1, 2):
        built = build_base_graph(problem, nacl(nodes), tile=256)
        peaks = []

        def traced_call(task, inputs):
            # Sweep 0 grows the thread's scratch rows; sweeps 1-4 are the
            # steady state and the last one writes the grid, which exists
            # since the build.
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
        # one task per node and sweep: on two nodes all tiles face the other
        assert len(peaks) == 5 * nodes
        # (numpy's ufunc buffer -- 128 KiB however large the region -- aside)
        assert max(peaks) < tile_bytes // 2, f"a task allocated {max(peaks)} B"
        assert np.array_equal(
            built.assemble_grid({k: payloads[k] for k in built.final_keys()}),
            problem.reference_solution())


def traced_peak(fn) -> int:
    """Bytes ``fn()`` allocated at its peak, as tracemalloc sees them
    (numpy's array data included, anonymous mappings not)."""
    tracemalloc.start()
    try:
        base, _ = tracemalloc.get_traced_memory()
        fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak - base


@pytest.mark.parametrize("weights", [StencilWeights(), StencilWeights.damped_jacobi(0.8)])
def test_reference_sweeps_allocate_nothing_grid_sized(weights):
    """One array for the whole solve, swept in place and returned: the
    peak does not depend on the sweep count and stays under one grid
    and a quarter."""
    grid = np.random.default_rng(0).random((512, 512))
    grid_bytes = grid.nbytes
    jacobi_reference(grid, weights, 1)  # the scratch rows exist from here on
    peaks = {sweeps: traced_peak(lambda: jacobi_reference(grid, weights, sweeps))
             for sweeps in (1, 8)}
    assert peaks[8] < 1.25 * grid_bytes, peaks
    assert abs(peaks[8] - peaks[1]) < grid_bytes // 8, peaks


@pytest.mark.parametrize("init", ["constant", "callable"])
def test_a_reference_solution_holds_two_grids_not_three(init):
    """``JacobiProblem.reference_solution()`` writes the initial values
    straight into the one array it sweeps in place, band by band: its
    peak is one grid, one band's initial-value temporaries (a constant:
    ``BAND_CELLS`` cells each) and the O(rows + cols) boundary lines --
    not the two grids of an out-of-place sweep, nor three."""
    n = 1024
    problem = (JacobiProblem(n=n, iterations=8, init=0.25) if init == "constant"
               else random_problem(n=n, iterations=8, seed=4))
    grid_bytes = n * n * 8
    problem.reference_solution()  # the scratch rows exist from here on
    peak = traced_peak(problem.reference_solution)
    band = 6 * BAND_CELLS * 8  # index grids, clipped indices, values
    assert peak < grid_bytes + band + 16 * (n + n) * 8, (peak - grid_bytes) / 1024


def test_a_threads_run_holds_the_grid_it_returns_and_its_perimeter():
    """A ``threads`` run sweeps its one node block inside the result
    grid (an anonymous mapping, which tracemalloc does not see): what
    it allocates besides is O(rows + cols) and the graph, never a
    second grid."""
    n = 1024
    problem = random_problem(n=n, iterations=4, seed=2)
    knobs = dict(impl="base-parsec", tile=64, backend="threads", jobs=2)
    run(problem, nacl(1), **knobs)  # templates, scratch rows
    results = []
    peak = traced_peak(lambda: results.append(run(problem, nacl(1), **knobs)))
    assert len(results[0].graph) == 2 * 5  # two row slabs, sweeps and loads
    assert peak < 64 * (n + n) * 8, peak / 1024
    assert np.array_equal(results[0].grid, problem.reference_solution())


@needs_fork
@pytest.mark.timeout(120)
def test_a_node_process_allocates_nothing_block_sized(monkeypatch):
    """Traced from its first instruction to its report home, a node
    process allocates less than half its block (1 MiB): no framed buffer,
    no received copy -- the strips it reads are in the landing store,
    and the records it takes are headers."""
    problem = random_problem(n=512, iterations=6, seed=3)
    block_bytes = 512 * 256 * 8
    peaks = np.ndarray((2,), dtype=np.int64, buffer=mmap.mmap(-1, 16))
    peaks[...] = -1
    node_main = procs._node_main

    def traced(node, *args, **kwargs):
        tracemalloc.start()
        try:
            node_main(node, *args, **kwargs)
        finally:
            peaks[node] = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()

    monkeypatch.setattr(procs, "_node_main", traced)
    for impl, steps in (("base-parsec", 1), ("ca-parsec", 4)):
        result = run(problem, nacl(2), impl=impl, steps=steps, tile=64, backend="processes")
        assert np.array_equal(result.grid, problem.reference_solution())
        assert (peaks >= 0).all() and peaks.max() < block_bytes // 2, (impl, list(peaks))
        peaks[...] = -1
