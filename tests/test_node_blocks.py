"""The real backends execute node blocks, not tiles (``repro.core.dataflow``).

Per node and sweep one task runs the node's boundary tiles and one its
interior tiles, over one framed double buffer per node block; a part
of at least twice ``SLAB_CELLS`` cells is cut into row slabs, one task
each, so a node's workers share its sweep.  Remote strips and corners
stay one flow per message of the paper's graph.  These tests pin that
the grids are the reference's on every shape and backend, that the
executed graph has one task per part or slab, node and sweep (the
simulator keeps one per tile) whatever the worker count, that its
census is the declared one, that a block's buffer is allocated once,
and that a sweep never overwrites the half a task of the previous
sweep still reads.  ``threads`` has one address space and runs the
grid as one node block, whose faults still land on the modelled nodes.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter
from types import SimpleNamespace

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.chaos import ChaosContext, FaultInjector, harness, parse_plan, run_with_recovery
from repro.core import dataflow
from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.dataflow import TEMPLATES
from repro.core.runner import run
from repro.distgrid.boundary import DirichletBC
from repro.distgrid.partition import GridPartition, ProcessGrid
from repro.exec import NodeLostError, fork_available
from repro.exec.executor import ThreadedExecutor
from repro.machine.machine import nacl
from repro.stencil.kernels import SLAB_CELLS
from repro.stencil.problem import JacobiProblem
from repro.stencil.variable import VariableStencilWeights

from .conftest import random_problem

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
pytestmark = pytest.mark.timeout(300)

#: name -> (rows, cols, nodes, process grid, tile)
SHAPES = {
    "square": (24, 24, 4, None, 6),
    "non-square": (24, 48, 4, None, 6),
    "ragged": (29, 38, 4, None, 5),  # last tile row and column narrower
    "odd": (54, 42, 6, ProcessGrid(3, 2), 6),  # tests/test_dataflow.py PINNED["odd"]
    # after a recovery lost one of six nodes: the five survivors get the
    # partition a fresh five-node run gets (1 x 5, chaos/harness.py)
    "remapped": (24, 40, 5, None, 4),
}
VARIANTS = {"base": {}, "ca2": {"steps": 2}, "ca3": {"steps": 3}, "ca4": {"steps": 4}}
#: every shape with every step size its narrowest tile (3 cells in "odd") allows
CASES = [(shape, variant) for shape in SHAPES for variant in VARIANTS
         if not (shape == "odd" and variant == "ca4")]
ITERATIONS = (0, 1, 7)  # 7: no step size here divides it


def knobs(variant: str, **more) -> dict:
    steps = VARIANTS[variant]
    return {"impl": "ca-parsec" if steps else "base-parsec", **steps, **more}


def problem_of(shape: str, iterations: int, seed: int = 0) -> JacobiProblem:
    rows, cols = SHAPES[shape][:2]
    return random_problem(rows, iterations, seed=seed, ncols=cols)


def forcing(rows, cols):
    return 0.01 * np.sin(0.3 * rows) * np.cos(0.2 * cols)


def heterogeneous(n: int, ncols: int, iterations: int) -> JacobiProblem:
    """Variable coefficients and a source term: the kernel's per-cell
    fields evaluated over whole rectangles of a node block."""
    base = random_problem(n, iterations, seed=4, ncols=ncols)
    weights = VariableStencilWeights.from_diffusivity(
        lambda r, c: 1.0 + 0.5 * np.sin(0.2 * r) * np.cos(0.1 * c), dt_h2=0.1)
    return JacobiProblem(n=n, ncols=ncols, iterations=iterations, init=base.init,
                         bc=base.bc, weights=weights, source=forcing)


# -- the grids -------------------------------------------------------------------


@pytest.mark.parametrize("shape,variant", CASES)
def test_threads_grids_equal_the_reference(shape, variant):
    _, _, nodes, pgrid, tile = SHAPES[shape]
    for iterations in ITERATIONS:
        problem = problem_of(shape, iterations)
        truth = problem.reference_solution()
        for jobs in (1, 2, 3):
            result = run(problem, nacl(nodes), backend="threads", jobs=jobs, tile=tile,
                         pgrid=pgrid, **knobs(variant))
            assert np.array_equal(result.grid, truth), (iterations, jobs)


@needs_fork
@pytest.mark.parametrize("variant", VARIANTS)
@pytest.mark.parametrize("procs,shape", [(2, "ragged"), (4, "non-square")])
def test_processes_grids_equal_the_reference(procs, shape, variant):
    tile = SHAPES[shape][4]
    for iterations in (1, 7):
        problem = problem_of(shape, iterations, seed=1)
        result = run(problem, backend="processes", procs=procs, tile=tile,
                     **knobs(variant))
        assert np.array_equal(result.grid, problem.reference_solution()), iterations


@pytest.mark.parametrize("backend", [
    "sim", "threads", pytest.param("processes", marks=needs_fork)])
@pytest.mark.parametrize("variant", ["base", "ca3"])
def test_variable_coefficients_and_a_source_term(backend, variant):
    problem = heterogeneous(27, 38, 7)
    more = {"mode": "execute"} if backend == "sim" else {"jobs": 2}
    result = run(problem, nacl(4), backend=backend, tile=5, **knobs(variant, **more))
    assert np.array_equal(result.grid, problem.reference_solution())


def test_a_constant_boundary_and_a_constant_start_need_no_callables():
    problem = JacobiProblem(n=40, ncols=24, iterations=5, init=0.5, bc=DirichletBC(1.25))
    result = run(problem, nacl(4), backend="threads", tile=4, **knobs("ca3"))
    assert np.array_equal(result.grid, problem.reference_solution())


@st.composite
def layouts(draw):
    """Any partition, including a recovery's (the survivors of a lost
    node partitioned like a fresh run on their count), with any step
    size its tiles allow."""
    base = ProcessGrid(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    dead = draw(st.integers(0, base.size - 1))
    pgrid = ProcessGrid.square(base.size - dead) if dead else base
    tile = draw(st.integers(2, 6))
    nrows = draw(st.integers(2 * pgrid.rows, 30))
    ncols = draw(st.integers(2 * pgrid.cols, 30))
    steps = draw(st.integers(1, GridPartition(nrows, ncols, pgrid, tile).min_tile_dim()))
    return nrows, ncols, pgrid, tile, steps, draw(st.integers(0, 5)), draw(st.integers(1, 3))


@settings(max_examples=60, deadline=None)
@given(layouts())
def test_any_layout_solves_exactly_on_the_block_and_the_tile_graph(layout):
    nrows, ncols, pgrid, tile, steps, iterations, jobs = layout
    problem = random_problem(nrows, iterations, seed=nrows * ncols, ncols=ncols)
    truth = problem.reference_solution()
    machine = nacl(pgrid.size)
    impl = {"impl": "ca-parsec", "steps": steps} if steps > 1 else {"impl": "base-parsec"}
    for backend, more in (("threads", {"jobs": jobs}), ("sim", {"mode": "execute"})):
        result = run(problem, machine, backend=backend, tile=tile, pgrid=pgrid, **impl, **more)
        assert np.array_equal(result.grid, truth), backend


# -- granularity -----------------------------------------------------------------------


def per_node_and_sweep(keys, graph) -> Counter:
    return Counter((graph[key].node, key[-1]) for key in keys)


@pytest.mark.parametrize("backend", [
    "sim", "threads", pytest.param("processes", marks=needs_fork)])
@pytest.mark.parametrize("shape", SHAPES)
def test_at_most_two_executed_tasks_per_node_and_sweep(shape, backend):
    _, _, nodes, pgrid, tile = SHAPES[shape]
    problem = problem_of(shape, 7, seed=2)
    more = {"mode": "execute"} if backend == "sim" else {"jobs": 1}
    result = run(problem, nacl(nodes), backend=backend, tile=tile, pgrid=pgrid,
                 **knobs("ca3", **more))
    assert np.array_equal(result.grid, problem.reference_solution())
    graph = result.graph
    executed = per_node_and_sweep(result.engine.completed if backend != "sim"
                                  else graph.tasks, graph)
    # the same tasks at every sweep: a tile each (the paper's graph, what
    # the simulator runs), or a part of the node block each
    tasks = Counter(graph[key].node for key in graph.tasks if key[-1] == 0)
    assert executed == {(node, t): tasks[node] for node in tasks for t in range(-1, 7)}
    if backend != "sim":
        # threads has one address space, so it runs the grid as one node block
        assert len(result.engine.completed) == len(graph)
        assert len(tasks) == (1 if backend == "threads" else nodes)
        assert set(tasks.values()) <= {1, 2}  # every part here is below 2 x SLAB_CELLS


@pytest.mark.parametrize("name,shape,executed", [
    # (rows, cols, iterations, nodes, tile, steps): the benchmark's geometries
    ("serve_mix", (256, 256, 8, 4, 32, 1), 4 * 2 * 9),  # 7 boundary, 9 interior tiles
    # one node of 2^22 cells: 8 slabs of one tile row (2^19 cells) each
    ("kernel_large", (2048, 2048, 16, 1, 256, 1), 8 * 17),
    # 2^19 cells per node, all of them boundary tiles: below 2 x SLAB_CELLS
    ("halo_base", (4096, 256, 64, 2, 128, 1), 130),
    ("halo_ca", (4096, 256, 64, 2, 128, 4), 130),
])
def test_the_benchmark_geometries_lower_to_few_tasks(name, shape, executed):
    rows, cols, iterations, nodes, tile, steps = shape
    problem = JacobiProblem(n=rows, ncols=cols, iterations=iterations, init=0.5)
    if steps == 1:
        built = build_base_graph(problem, nacl(nodes), tile=tile)
    else:
        built = build_ca_graph(problem, nacl(nodes), tile=tile, steps=steps)
    assert len(built.graph) == executed
    paper = built.per_tile().graph
    assert len(paper) == len(built.spec.exchange_plan()) * (iterations + 1)
    # The kernel runs once per rectangle: one for a node's interior (or
    # a slab of it), one per side of its boundary ring.
    for prefix, plan in built.kernels.plans.items():
        assert len(plan.finals) <= (1 if prefix[2] == "interior" else 4)
        assert all(len(phase.update) == len(plan.finals) for phase in plan.phases)


# -- row slabs ------------------------------------------------------------------------------

#: name -> (rows, cols, nodes, process grid, tile): a part of >= 2 x SLAB_CELLS
SLABBED = {
    "one-node": (1024, 1024, 1, None, 64),  # 2^20 interior cells: 2 slabs of 8 tile rows
    # per node 2048 x 640: a boundary column of 16 tiles (2^18 cells,
    # one task) and 2^20 interior cells (2 slabs)
    "two-node": (2048, 1280, 2, ProcessGrid(1, 2), 128),
}


def slabbed(shape: str, iterations: int, **more):
    """The problem of ``shape`` and a ``run()`` of it that takes the
    backend's knobs."""
    rows, cols, nodes, pgrid, tile = SLABBED[shape]
    problem = random_problem(rows, iterations, seed=rows + cols, ncols=cols)
    return problem, lambda **knobs: run(problem, nacl(nodes), tile=tile, pgrid=pgrid,
                                        **{"impl": "base-parsec", **more, **knobs})


def parts_of(plans) -> dict:
    """(node, part) -> the tile keys of each of its tasks, in slab order."""
    parts: dict = {}
    for prefix in sorted(plans):
        parts.setdefault(prefix[1:3], []).append(plans[prefix].tiles)
    return parts


@pytest.mark.parametrize("variant", ["base", "ca2"])
@pytest.mark.parametrize("shape", SLABBED)
def test_slabbed_grids_equal_the_reference(shape, variant):
    problem, solve = slabbed(shape, 5, **knobs(variant))
    truth = problem.reference_solution()
    for jobs in (1, 2, 3):
        assert np.array_equal(solve(backend="threads", jobs=jobs).grid, truth), jobs
    if fork_available():
        assert np.array_equal(solve(backend="processes", procs=SLABBED[shape][2]).grid, truth)


@pytest.mark.parametrize("shape", SLABBED)
def test_a_slab_is_a_run_of_whole_consecutive_tile_rows(shape):
    rows, cols, nodes, pgrid, tile = SLABBED[shape]
    problem = JacobiProblem(n=rows, ncols=cols, iterations=2, init=0.5)
    built = build_base_graph(problem, nacl(nodes), tile=tile, pgrid=pgrid)
    sliced = 0
    for (node, part), slabs in parts_of(built.kernels.plans).items():
        tiles = [built.spec.tile(i, j) for slab in slabs for (i, j) in slab]
        tile_rows = sorted({t.i for t in tiles})
        cells = sum(t.h * t.w for t in tiles)
        assert len(slabs) == min(len(tile_rows), max(1, cells // SLAB_CELLS))
        sliced += len(slabs) > 1
        taken = []
        for slab in slabs:
            mine = sorted({i for i, _ in slab})
            assert mine == list(range(mine[0], mine[-1] + 1))  # consecutive
            assert sorted(slab) == sorted(t.key for t in tiles if t.i in mine)  # whole rows
            taken += mine
        assert taken == tile_rows  # in order, each row once
    assert sliced == nodes


def test_the_slabs_do_not_depend_on_the_worker_count():
    _, solve = slabbed("two-node", 2)
    one, four = (solve(backend="threads", jobs=jobs) for jobs in (1, 4))
    assert set(one.graph.tasks) == set(four.graph.tasks) == set(four.engine.completed)
    # threads runs the grid as one node block: 2048 x 1280 cells, 5 slabs
    assert len(one.graph) == 5 * 3  # x 3 sweeps


def test_two_workers_share_a_nodes_sweep():
    problem, solve = slabbed("one-node", 10)
    result = solve(backend="threads", jobs=2, trace=True)
    assert np.array_equal(result.grid, problem.reference_solution())
    lanes: dict = {}
    for span in result.engine.trace:
        if span.kind != "init":
            lanes.setdefault(span.task_id[-1], set()).add(span.worker)
    assert set(lanes) == set(range(10))
    assert any(len(workers) == 2 for workers in lanes.values()), lanes


@pytest.fixture
def small_slabs(monkeypatch):
    """Every part cut into as many slabs as it has tile rows, on shapes
    small enough to run every backend: a template holds the lowered
    graph, so both sides of the test start cold."""
    monkeypatch.setattr(dataflow, "SLAB_CELLS", 1)
    TEMPLATES.clear()
    yield
    TEMPLATES.clear()


@pytest.mark.parametrize("shape,variant", [("square", "base"), ("odd", "ca3"),
                                           ("ragged", "ca2"), ("remapped", "ca4")])
def test_a_boundary_ring_cut_into_slabs_solves_exactly(small_slabs, shape, variant):
    _, _, nodes, pgrid, tile = SHAPES[shape]
    problem = problem_of(shape, 7, seed=3)
    truth = problem.reference_solution()
    builder = build_ca_graph if VARIANTS[variant] else build_base_graph
    built = builder(problem, nacl(nodes), tile=tile, pgrid=pgrid, **VARIANTS[variant])
    assert any(len(slabs) > 1 for (_, part), slabs in parts_of(built.kernels.plans).items()
               if part == "boundary")
    declared = builder(problem, nacl(nodes), tile=tile, pgrid=pgrid, with_kernels=False,
                       **VARIANTS[variant]).graph.census()
    assert built.graph.census().by_pair == declared.by_pair
    for jobs in (1, 3):
        result = run(problem, nacl(nodes), backend="threads", jobs=jobs, tile=tile,
                     pgrid=pgrid, **knobs(variant))
        assert np.array_equal(result.grid, truth), jobs
    if fork_available():
        result = run(problem, backend="processes", procs=nodes, tile=tile, pgrid=pgrid,
                     **knobs(variant))
        assert np.array_equal(result.grid, truth)
        assert result.engine.messages == declared.remote_messages


# -- the census ---------------------------------------------------------------------------


@pytest.mark.parametrize("shape,variant", CASES)
def test_the_executed_graphs_census_is_the_declared_one(shape, variant):
    _, _, nodes, pgrid, tile = SHAPES[shape]
    problem = problem_of(shape, 7)
    builder = build_ca_graph if VARIANTS[variant] else build_base_graph
    built = builder(problem, nacl(nodes), tile=tile, pgrid=pgrid, **VARIANTS[variant])
    declared = builder(problem, nacl(nodes), tile=tile, pgrid=pgrid, with_kernels=False,
                       **VARIANTS[variant]).graph
    executed, paper = built.graph.census(), declared.census()
    assert (executed.remote_messages, executed.remote_bytes, executed.by_pair) == (
        paper.remote_messages, paper.remote_bytes, paper.by_pair)
    # ... message for message: one copy flow per entry, named after its tile.
    blocks = sorted((tag.split(":")[0], nbytes, built.graph[producer].node, dst)
                    for producer, messages in built.graph.message_plan().items()
                    for tag, dst, nbytes in messages)
    tiles = sorted((tag, nbytes, declared[producer].node, dst)
                   for producer, messages in declared.message_plan().items()
                   for tag, dst, nbytes in messages)
    assert blocks == tiles
    assert built.graph.total_flops() == declared.total_flops()


@needs_fork
def test_processes_measure_the_declared_messages():
    problem = problem_of("odd", 7)
    result = run(problem, backend="processes", procs=6, tile=6, pgrid=ProcessGrid(3, 2),
                 **knobs("ca3"))
    declared = build_ca_graph(problem, nacl(6), tile=6, steps=3, pgrid=ProcessGrid(3, 2),
                              with_kernels=False).graph.census()
    assert np.array_equal(result.grid, problem.reference_solution())
    assert (result.engine.messages, result.engine.message_bytes) == (
        declared.remote_messages, declared.remote_bytes) == (390, 26784)


# -- write after read ---------------------------------------------------------------------


class Spans:
    """(start, end) of every task body, per task key, across threads."""

    def __init__(self) -> None:
        self.lock = threading.Lock()
        self.spans: dict = {}

    def wrap(self, task):
        inner = task.kernel

        def kernel(inputs, task):
            start = time.perf_counter()
            out = inner(inputs, task)
            with self.lock:
                self.spans[task.key] = (start, time.perf_counter())
            return out

        task.kernel = kernel


@pytest.fixture
def fast_switching():
    """A 10 us switch interval: four workers interleave as much as this
    host lets them."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


def check_write_after_read(built, truth, label) -> None:
    """Run ``built`` on four workers; each of a node's tasks at t+1 must
    start after all of its tasks at t ended, and the grid is ``truth``."""
    spans = Spans()
    for task in built.graph:
        spans.wrap(task)
    report = ThreadedExecutor(built.graph, jobs=4, policy="fifo").run(timeout=120)
    assert np.array_equal(built.assemble_grid(report.results), truth), label
    for key, (start, _) in spans.spans.items():
        node, t = built.graph[key].node, key[-1]
        for other, (_, end) in spans.spans.items():
            if other[-1] == t - 1 and built.graph[other].node == node:
                assert end <= start, (label, other, key)


def test_a_sweep_never_overwrites_a_half_the_previous_sweep_still_reads(fast_switching):
    """Sweep t+1 writes the half sweep t-1 wrote and sweep t reads: each
    of a node's tasks at t+1 must start after all of its tasks at t
    ended.  Four workers and a 10 us switch interval interleave the
    interior and boundary tasks of four nodes as much as this host can;
    every rep must still be the reference."""
    problem = random_problem(32, 9, seed=5)
    truth = problem.reference_solution()
    for rep in range(20):
        variant = ("base", "ca3")[rep % 2]
        builder = build_ca_graph if VARIANTS[variant] else build_base_graph
        check_write_after_read(builder(problem, nacl(4), tile=4, **VARIANTS[variant]),
                               truth, rep)


@pytest.mark.parametrize("shape", SLABBED)
def test_a_slab_never_overwrites_a_half_the_previous_sweep_still_reads(fast_switching, shape):
    problem, _ = slabbed(shape, 4)
    rows, cols, nodes, pgrid, tile = SLABBED[shape]
    truth = problem.reference_solution()
    for rep in range(3):
        check_write_after_read(build_base_graph(problem, nacl(nodes), tile=tile, pgrid=pgrid),
                               truth, rep)


@pytest.mark.parametrize("shape,reps", [("one-node", 4), ("square", 20)])
def test_a_node_buffer_is_allocated_and_framed_once(fast_switching, monkeypatch, shape, reps):
    """Every task of a block may be the first to touch its buffer; one
    of them frames each half, once."""
    if shape in SLABBED:
        problem, _ = slabbed(shape, 1)
        _, _, nodes, pgrid, tile = SLABBED[shape]
    else:
        problem = problem_of(shape, 1)
        _, _, nodes, pgrid, tile = SHAPES[shape]
    bc = type(problem.bc)
    fill_outside, framed, lock = bc.fill_outside, Counter(), threading.Lock()

    def counted(self, half, origin, *grid):
        with lock:
            framed[origin] += 1
        return fill_outside(self, half, origin, *grid)

    monkeypatch.setattr(bc, "fill_outside", counted)
    for rep in range(reps):
        built = build_base_graph(problem, nacl(nodes), tile=tile, pgrid=pgrid)
        ThreadedExecutor(built.graph, jobs=4, policy="fifo").run(timeout=120)
        blocks = [buffer.origin for buffer in built.spec.buffers().values()]
        assert framed == Counter({origin: 2 for origin in blocks}), rep
        framed.clear()


# -- threads: the grid as one node block -----------------------------------------------


def test_threads_runs_the_serve_mix_geometry_as_one_node_block(monkeypatch):
    """``serve_mix``'s request (256^2, 8 sweeps, tile 32, modelled on
    nacl(4)): 9 tasks, one buffer, every flow a token and nothing but
    tokens published."""
    allocated = []
    allocate = dataflow.StencilKernels._allocate
    monkeypatch.setattr(dataflow.StencilKernels, "_allocate",
                        lambda self, block: allocated.append(block) or allocate(self, block))
    published = []

    def recording(executor):
        for task in executor.graph:
            def kernel(inputs, task, inner=task.kernel):
                out = inner(inputs, task)
                published.extend(out.values())
                return out
            task.kernel = kernel

    problem = JacobiProblem(n=256, iterations=8, init=0.5, bc=DirichletBC(1.5))
    result = run(problem, nacl(4), impl="base-parsec", backend="threads", jobs=1, tile=32,
                 on_executor=recording)
    assert np.array_equal(result.grid, problem.reference_solution())
    assert len(result.graph) == result.engine.tasks_run == 9
    assert allocated == [(0, 0)]
    assert all(flow.nbytes == 0 for task in result.graph for flow in task.inputs)
    assert result.graph.census().remote_messages == result.engine.messages == 0
    assert len(published) == 9 and not any(isinstance(p, np.ndarray) for p in published)
    assert result.machine == nacl(4)  # the model is what the result reports


@pytest.mark.parametrize("shape,variant", [("odd", "ca3"), ("remapped", "base")])
def test_threads_tasks_and_grids_do_not_depend_on_jobs(small_slabs, shape, variant):
    _, _, nodes, pgrid, tile = SHAPES[shape]
    problem = problem_of(shape, 7, seed=6)
    results = [run(problem, nacl(nodes), backend="threads", jobs=jobs, tile=tile, pgrid=pgrid,
                   **knobs(variant)) for jobs in (1, 2, 3)]
    keys = {frozenset(result.engine.completed) for result in results}
    assert len(keys) == 1 and keys == {frozenset(results[0].graph.tasks)}
    assert {task.node for task in results[0].graph} == {0}  # one block
    assert len(results[0].graph) > 8  # a slab per tile row, per sweep
    for result in results:
        assert np.array_equal(result.grid, problem.reference_solution())


@pytest.mark.parametrize("variant", ["base", "ca3"])
def test_the_one_buffer_and_its_slabs_never_overwrite_a_half_still_read(
        small_slabs, fast_switching, variant):
    """What ``threads`` runs for a four-node model: one buffer, here cut
    into a slab per tile row, on four workers."""
    problem = random_problem(32, 9, seed=8)
    truth = problem.reference_solution()
    builder = build_ca_graph if VARIANTS[variant] else build_base_graph
    for rep in range(10):
        built = builder(problem, nacl(1), tile=4, **VARIANTS[variant])
        assert len(built.spec.buffers()) == 1 and len(built.kernels.plans) == 8
        check_write_after_read(built, truth, rep)


@pytest.mark.parametrize("kind", ["kill", "delay"])
def test_a_fault_on_a_modelled_node_fires_in_a_threads_task_covering_it(
        small_slabs, monkeypatch, tmp_path, kind):
    """24^2 on a modelled 2 x 2 nacl(4): ``threads`` runs one block, one
    slab per tile row (rows 6k .. 6k + 5 in slab k).  A fault on node 3
    at sweep 2 fires in a sweep-2 slab that meets node 3's block (rows
    12-23), then recovers bit-identically."""
    problem = random_problem(24, 6, seed=11)
    knobs = dict(impl="base-parsec", tile=6, backend="threads", jobs=1)
    plan = f"{kind}:node=3,step=2" + (",secs=0.25" if kind == "delay" else "")
    running, culprits = [], []

    def tracked(executor):
        for task in executor.graph:
            def kernel(inputs, task, inner=task.kernel):
                running.append(task.key)
                return inner(inputs, task)
            task.kernel = kernel

    monkeypatch.setattr(harness, "time", SimpleNamespace(
        sleep=lambda secs: culprits.append((running[-1], secs)),
        perf_counter=time.perf_counter, monotonic=time.monotonic))
    chaos = ChaosContext(FaultInjector(parse_plan(plan), workdir=tmp_path / "once"))
    if kind == "kill":
        with pytest.raises(NodeLostError) as lost:
            run(problem, nacl(4), chaos=chaos, on_executor=tracked, **knobs)
        assert lost.value.node == 3
        culprits.append((running[-1], None))
    else:
        result = run(problem, nacl(4), chaos=chaos, on_executor=tracked, **knobs)
        assert np.array_equal(result.grid, problem.reference_solution())
    [(key, _)] = culprits
    assert key[-1] == 2 and key[3] >= 2, key
    recovered = run_with_recovery(problem, parse_plan(plan), nacl(4),
                                  checkpoint_dir=tmp_path / "run", **knobs)
    assert np.array_equal(recovered.grid, problem.reference_solution())
    assert [restart["node"] for restart in recovered.restarts] == (
        [3] if kind == "kill" else [])
