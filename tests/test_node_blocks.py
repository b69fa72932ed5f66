"""The real backends execute node blocks, not tiles (``repro.core.dataflow``).

Per node and sweep one task runs the node's boundary tiles and one its
interior tiles, over one framed double buffer per node block; remote
strips and corners stay one flow per message of the paper's graph.
These tests pin that the grids are the reference's on every shape and
backend, that the executed graph has at most two tasks per node and
sweep (the simulator keeps one per tile), that its census is the
declared one, and that a sweep never overwrites the half a task of the
previous sweep still reads.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import Counter

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.runner import run
from repro.distgrid.boundary import DirichletBC
from repro.distgrid.partition import GridPartition, ProcessGrid, RemappedGrid
from repro.exec import fork_available
from repro.exec.executor import ThreadedExecutor
from repro.machine.machine import nacl
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
    # after a recovery lost rank 4: node 0 adopts block (2, 0), so it
    # owns two buffers that do not touch (chaos/harness.py's buddy rule)
    "remapped": (36, 24, 5, RemappedGrid.shrink(ProcessGrid(3, 2), [0, 1, 2, 3, 5]), 4),
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
    """Any partition, including a recovery's (several node blocks on one
    node: ``RemappedGrid``), with any step size its tiles allow."""
    base = ProcessGrid(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    dead = draw(st.sets(st.integers(0, base.size - 1), max_size=base.size - 1))
    pgrid = RemappedGrid.shrink(base, sorted(set(range(base.size)) - dead)) or base
    tile = draw(st.integers(2, 6))
    nrows = draw(st.integers(2 * base.rows, 30))
    ncols = draw(st.integers(2 * base.cols, 30))
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
    if backend == "sim":  # the paper's graph: a task per tile and sweep
        tiles = Counter(graph[key].node for key in graph.tasks if key[-1] == 0)
        assert executed == {(node, t): tiles[node] for node in tiles for t in range(-1, 7)}
    else:
        assert len(result.engine.completed) == len(graph)
        assert set(executed.values()) <= {1, 2} and len(executed) == nodes * 8


@pytest.mark.parametrize("name,shape,executed", [
    # (rows, cols, iterations, nodes, tile, steps): the benchmark's geometries
    ("serve_mix", (256, 256, 8, 4, 32, 1), 4 * 2 * 9),  # 7 boundary, 9 interior tiles
    ("kernel_large", (2048, 2048, 16, 1, 256, 1), 17),
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
    # The kernel runs once per rectangle: one for a node's interior,
    # one per side of its boundary ring.
    for (_, _, part), plan in built.kernels.plans.items():
        assert len(plan.finals) <= (1 if part == "interior" else 4)
        assert all(len(phase.update) == len(plan.finals) for phase in plan.phases)


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


def test_a_sweep_never_overwrites_a_half_the_previous_sweep_still_reads():
    """Sweep t+1 writes the half sweep t-1 wrote and sweep t reads: each
    of a node's tasks at t+1 must start after all of its tasks at t
    ended.  Four workers and a 10 us switch interval interleave the
    interior and boundary tasks of four nodes as much as this host can;
    every rep must still be the reference."""
    problem = random_problem(32, 9, seed=5)
    truth = problem.reference_solution()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for rep in range(20):
            variant = ("base", "ca3")[rep % 2]
            builder = build_ca_graph if VARIANTS[variant] else build_base_graph
            built = builder(problem, nacl(4), tile=4, **VARIANTS[variant])
            spans = Spans()
            for task in built.graph:
                spans.wrap(task)
            report = ThreadedExecutor(built.graph, jobs=4, policy="fifo").run(timeout=120)
            assert np.array_equal(built.assemble_grid(report.results), truth), rep
            for key, (start, _) in spans.spans.items():
                node, t = built.graph[key].node, key[-1]
                for other, (_, end) in spans.spans.items():
                    if other[-1] == t - 1 and built.graph[other].node == node:
                        assert end <= start, (rep, other, key)
    finally:
        sys.setswitchinterval(interval)
