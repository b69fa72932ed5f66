"""Node buffer lifetime and allocation budget of the stencil data path.

Every node block has one framed double buffer and every tile's extended
array is a window of it: a task pastes the copies it received (remote
strips and corners) into the pads of the half it reads, updates its
tiles into the other half and cuts copies for the consumers in other
buffers; a flow between tiles of one buffer is a token.  The last
sweep writes the cores into the build's result grid.  These tests pin
what makes that safe (only the declared pad cells are written, inputs
stay intact, a fresh executor on the same build starts clean), who
owns the buffers (the kernels: they die with the run's result, and the
``processes`` parent never makes one) and that the allocations the
buffers removed do not creep back.
"""

import gc
import queue
import tracemalloc
import weakref

import numpy as np
import pytest

from repro.chaos import ChaosContext, CheckpointStore, FaultInjector, parse_plan
from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.dataflow import IN_BUFFER, IN_GRID, StencilKernels
from repro.core.runner import run
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

from .conftest import random_problem, shared_mappings

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")


def kernels_of(built):
    """The one StencilKernels instance behind a freshly built graph."""
    return next(iter(built.graph)).kernel.__self__


def build(problem, machine, variant):
    if variant == "base":
        return build_base_graph(problem, machine, tile=6)
    return build_ca_graph(problem, machine, tile=6, steps=4)


def instrument(built):
    """Wrap every task before any pass sees it: collect a weak reference
    to each copy published, and fail the run -- in whichever process or
    thread it happens -- if a last-sweep task publishes anything but its
    grid token, or a copy is a view of a node buffer."""
    t_last = built.spec.problem.iterations - 1
    copies = []

    def wrapped(inner, last):
        def kernel(inputs, task):
            out = inner(inputs, task)
            if last and out != {"tile": IN_GRID}:
                raise AssertionError(f"{task.key} published {out}")
            buffers = list(inner.__self__.buffers.values())  # other tasks add to it
            for copy in arrays_in(out.values()):
                if any(np.shares_memory(copy, halves) for halves in buffers):
                    raise AssertionError(f"{task.key} published a view of its buffer")
                copies.append(weakref.ref(copy))
            return out
        return kernel

    for task in built.graph:
        task.kernel = wrapped(task.kernel, task.key[-1] == t_last)
    return copies


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
    if backend == "sim":
        built = built.per_tile()  # what the simulator runs
    copies = instrument(built)
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
    buffers = len(built.kernels.buffers)
    grid = built.assemble_grid(report.results)
    assert grid is built.grid
    assert np.array_equal(grid, problem.reference_solution())
    # One token per final task, and nothing tile-sized came back.
    assert set(report.results) == set(built.final_keys())
    assert list(arrays_in(report.results.values())) == []
    if backend == "processes":
        return  # the node processes' buffers and stores died with them
    assert len(executor._store) == 0
    # The graph, its kernels and the executor are all still here, yet
    # none of the copies that crossed a buffer edge is alive, and the
    # node buffers went once the grid was assembled: the grid is the
    # only tile-sized memory left.
    assert copies
    gc.collect()
    assert [ref() for ref in copies if ref() is not None] == []
    assert buffers == machine.nodes and built.kernels.buffers == {}


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
    pasted = 0

    def checked_call(task, inputs):
        nonlocal pasted
        t = task.key[-1]
        before = {k: v.copy() for k, v in inputs.items() if isinstance(v, np.ndarray)}
        outputs = task.kernel(inputs, task)
        arrays = list(arrays_in(outputs.values()))
        for k, payload in inputs.items():
            if not isinstance(payload, np.ndarray):
                assert payload == IN_BUFFER  # a flow within one buffer
                continue
            assert not payload.flags.writeable
            assert all(not np.shares_memory(payload, out) for out in arrays)
            assert payload.tobytes() == before[k].tobytes(), f"{task.key} wrote input {k}"
        if t >= 0 and t + 1 < problem.iterations:
            # Every copy sits in the pad of the half this sweep read.
            plan = kernels.plans[task.key[:-1]]
            for paste in plan.phases[t % built.spec.steps].pastes:
                halves = kernels.buffers[paste.block]
                value = inputs[(paste.producer + (t - 1,), paste.tag)]
                assert np.array_equal(halves[t % 2][paste.dest], value)
                pasted += 1
        return outputs

    payloads = sweep_by_hand(built, checked_call)
    assert pasted > 0
    finals = {k: payloads[k] for k in built.final_keys()}
    assert list(arrays_in(finals.values())) == []
    assert np.array_equal(built.assemble_grid(finals), problem.reference_solution())


def test_running_the_same_task_twice_never_writes_its_input():
    """A task is re-runnable: it reads one half and its copies, writes
    the other half, so running it again changes nothing it read."""
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
                assert np.array_equal(again[tag], payload)
        for tag, payload in first.items():
            if isinstance(payload, np.ndarray):
                payload.setflags(write=False)
            payloads[(key, tag)] = payload


@pytest.mark.timeout(120)
def test_reset_and_rerun_of_the_same_graph_is_bit_identical():
    """A "reset" is a fresh executor on the same graph: its kernels
    keep their node buffers from the previous run and must still be
    right."""
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

    # Cancel from inside a mid-run task: both halves hold live values then.
    trigger = built.graph[(built.name, 3, "boundary", 6)]
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


# -- who owns the node buffers -------------------------------------------------


@pytest.fixture
def allocations(monkeypatch):
    """(node block, weak reference) of every node buffer this process
    allocates."""
    made = []
    allocate = StencilKernels._allocate

    def recorded(self, block):
        halves = allocate(self, block)
        made.append((block, weakref.ref(halves)))
        return halves

    monkeypatch.setattr(StencilKernels, "_allocate", recorded)
    return made


@pytest.mark.timeout(120)
@pytest.mark.parametrize("backend", BACKENDS)
def test_node_buffers_die_with_the_run_result(backend, allocations):
    problem = random_problem(n=24, iterations=5, seed=7)
    knobs = dict(impl="ca-parsec", tile=6, steps=3, mode="execute", backend=backend)
    result = run(problem, nacl(4), **knobs)
    blocks = sorted(block for block, _ in allocations)
    if backend == "processes":  # each node made its own, and died with it
        assert blocks == []
    elif backend == "threads":  # one address space: the grid is one node block
        assert blocks == [(0, 0)]
    else:
        assert blocks == [(0, 0), (0, 1), (1, 0), (1, 1)]  # one per node block
    # Released once the grid was assembled: a kept result pins its grid alone.
    gc.collect()
    assert next(iter(result.graph)).kernel.__self__.buffers == {}
    assert [block for block, ref in allocations if ref() is not None] == []
    assert np.array_equal(result.grid, problem.reference_solution())


@pytest.mark.timeout(120)
@pytest.mark.parametrize("wrapped", ["plain", "chaos", "passes"])
def test_a_held_threads_result_keeps_no_node_buffer(wrapped, allocations, tmp_path):
    """However the kernels were wrapped -- by a chaos context (which
    also checkpoints from the buffers during the run) or by a rewrite
    pass -- the result a caller keeps holds the grid and no buffer."""
    problem = random_problem(n=48, iterations=6, seed=9)
    knobs = dict(impl="base-parsec", tile=6, backend="threads", jobs=2)
    if wrapped == "chaos":
        knobs["chaos"] = ChaosContext(
            FaultInjector(parse_plan("delay:node=2,step=3,secs=0")),
            store=CheckpointStore(tmp_path), checkpoint_every=2)
    elif wrapped == "passes":
        knobs["passes"] = "fuse,coarsen"
    result = run(problem, nacl(4), **knobs)
    assert len(allocations) == 1
    gc.collect()
    assert [ref() for _, ref in allocations if ref() is not None] == []
    assert np.array_equal(result.grid, problem.reference_solution())
    if wrapped == "chaos":
        assert knobs["chaos"].store.complete_steps() == [2, 4]


@needs_fork
@pytest.mark.timeout(120)
def test_the_processes_parent_maps_no_node_buffer():
    """Each node process makes its own node's buffer: the parent's
    kernels never touch one, and after the run the parent maps exactly
    one anonymous shared region more than before -- the result grid."""
    problem = random_problem(n=24, iterations=5, seed=8)
    before = shared_mappings()
    result = run(problem, nacl(4), impl="base-parsec", tile=6, backend="processes")
    assert next(iter(result.graph)).kernel.__self__.buffers == {}
    assert shared_mappings() == before + 1
    assert np.array_equal(result.grid, problem.reference_solution())


# -- allocation budget (tracemalloc sees numpy's array data) ---------------


def test_a_steady_state_stencil_task_allocates_less_than_half_a_tile():
    """A node-block task allocates nothing block- or grid-sized (the
    grid is 2 MiB, a node's block 1-2 MiB): the update goes from one
    half of the node buffer into the other and the last sweep into the
    result grid; what is left is the copies it cuts for another node (a
    256-cell strip on two nodes) and slicing."""
    problem = JacobiProblem(n=512, iterations=6)
    tile_bytes = 256 * 256 * 8
    for nodes in (1, 2):
        built = build_base_graph(problem, nacl(nodes), tile=256)
        peaks = []

        def traced_call(task, inputs):
            # Sweep 0 grows the thread's band scratch; sweeps 1-4 are the
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
