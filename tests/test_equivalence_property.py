"""Property-based tests of the central numerical invariant:

    CA-PaRSEC(s) == base-PaRSEC == single-array reference, bit-exact,

for arbitrary grid shapes, process grids, tile sizes, step sizes,
iteration counts, weights, initial data and boundary values.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.dataflow import build_stencil_graph
from repro.core.spec import StencilSpec
from repro.distgrid.boundary import DirichletBC
from repro.distgrid.partition import GridPartition, ProcessGrid
from repro.machine.machine import nacl
from repro.runtime.engine import Engine
from repro.stencil.kernels import StencilWeights
from repro.stencil.problem import JacobiProblem


@st.composite
def stencil_configs(draw):
    """A random, always-valid (problem, partition, steps) triple."""
    prows = draw(st.integers(1, 3))
    pcols = draw(st.integers(1, 3))
    tile = draw(st.integers(2, 6))
    # Grid sized so every node block exists and min tile dim >= steps.
    nrows = draw(st.integers(prows * tile, 30))
    ncols = draw(st.integers(pcols * tile, 30))
    pgrid = ProcessGrid(prows, pcols)
    partition = GridPartition(nrows, ncols, pgrid, tile)
    steps = draw(st.integers(1, partition.min_tile_dim()))  # up to the tile edge
    iterations = draw(st.integers(0, 9))
    seed = draw(st.integers(0, 2**16))
    omega = draw(st.floats(0.3, 1.0))
    return nrows, ncols, pgrid, tile, steps, iterations, seed, omega


def build_problem(nrows, ncols, seed, omega, iterations):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(nrows, ncols))

    def init(r, c):
        return values[np.clip(r, 0, nrows - 1), np.clip(c, 0, ncols - 1)]

    return JacobiProblem(
        n=nrows,
        ncols=ncols,
        iterations=iterations,
        init=init,
        bc=DirichletBC(lambda r, c: np.cos(0.3 * r) - np.sin(0.2 * c)),
        weights=StencilWeights.damped_jacobi(omega),
    )


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stencil_configs())
def test_ca_dataflow_equals_reference(config):
    nrows, ncols, pgrid, tile, steps, iterations, seed, omega = config
    problem = build_problem(nrows, ncols, seed, omega, iterations)
    spec = StencilSpec(problem=problem, partition=GridPartition(nrows, ncols, pgrid, tile), steps=steps)
    machine = nacl(pgrid.size)
    built = build_stencil_graph(spec, machine)
    rep = Engine(built.graph, machine, execute=True).run()
    grid = built.assemble_grid(rep.results)
    ref = problem.reference_solution()
    assert np.array_equal(grid, ref), (
        f"mismatch for grid {nrows}x{ncols}, pgrid {pgrid}, tile {tile}, "
        f"steps {steps}, T {iterations}: max err "
        f"{np.max(np.abs(grid - ref)):.3e}"
    )


@settings(max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stencil_configs(), st.sampled_from(["fifo", "lifo", "priority"]))
def test_result_independent_of_schedule(config, policy):
    """Dataflow semantics: any legal schedule produces the same bits."""
    nrows, ncols, pgrid, tile, steps, iterations, seed, omega = config
    problem = build_problem(nrows, ncols, seed, omega, iterations)
    spec = StencilSpec(problem=problem, partition=GridPartition(nrows, ncols, pgrid, tile), steps=steps)
    machine = nacl(pgrid.size)
    built = build_stencil_graph(spec, machine)
    rep = Engine(built.graph, machine, execute=True, policy=policy).run()
    assert np.array_equal(built.assemble_grid(rep.results), problem.reference_solution())


@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(stencil_configs())
def test_task_inputs_are_the_exchange_plan(config):
    """Every stencil task of a built graph consumes its own previous
    tile plus exactly the plan's incoming entries for (i, j, t % steps)
    -- producer key, tag and bytes, in the plan's order."""
    nrows, ncols, pgrid, tile, steps, iterations, _, _ = config
    problem = JacobiProblem(n=nrows, ncols=ncols, iterations=iterations)
    spec = StencilSpec(problem=problem, partition=GridPartition(nrows, ncols, pgrid, tile), steps=steps)
    built = build_stencil_graph(spec, nacl(pgrid.size), with_kernels=False)
    plan = spec.exchange_plan()
    assert len(built.graph) == len(plan) * (iterations + 1)
    for task in built.graph:
        name, i, j, t = task.key
        flows = [(flow.producer, flow.tag, flow.nbytes) for flow in task.inputs]
        if t < 0:
            assert flows == []
            continue
        assert flows == [((name, i, j, t - 1), "tile", 0)] + [
            ((name, *entry.producer, t - 1), entry.tag, entry.nbytes)
            for entry in plan[(i, j)][t % steps].incoming
        ]


@settings(max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(
    st.integers(1, 4),  # nranks per node knob via node count
    st.integers(6, 24),
    st.integers(6, 20),
    st.integers(0, 6),
    st.integers(0, 2**16),
)
def test_petsc_spmv_equals_reference(nodes, nrows, ncols, iterations, seed):
    from repro.core.petsc_jacobi import build_petsc_graph

    problem = build_problem(nrows, ncols, seed, 0.8, iterations)
    machine = nacl(nodes)
    if nrows * ncols < machine.nodes * machine.node.cores:
        return  # layout requires one entry per rank
    built = build_petsc_graph(problem, machine)
    rep = Engine(built.graph, machine, execute=True, overlap=False).run()
    grid = built.assemble_grid(rep.results)
    ref = problem.reference_solution()
    assert np.allclose(grid, ref, rtol=1e-12, atol=1e-12)
