"""The stencil graph builder: structure, costs, numerical execution.

The paper's graph (one task per tile and sweep) is what the builder
returns without kernels; with kernels it returns the node-block graph
the real executors run (``tests/test_node_blocks.py``)."""

import numpy as np
import pytest

from repro.core.dataflow import build_stencil_graph
from repro.core.spec import StencilSpec
from repro.distgrid.partition import ProcessGrid
from repro.machine.machine import nacl
from repro.runtime.engine import Engine
from repro.runtime.task import READY
from repro.stencil.problem import JacobiProblem

from .conftest import random_problem


def build(n=24, nodes=4, tile=4, steps=3, T=7, seed=0, with_kernels=True):
    prob = random_problem(n=n, iterations=T, seed=seed)
    spec = StencilSpec.create(prob, nodes=nodes, tile=tile, steps=steps)
    return build_stencil_graph(spec, nacl(nodes), with_kernels=with_kernels)


def test_task_count():
    built = build(T=7, with_kernels=False)
    tiles = 6 * 6
    assert len(built.graph) == tiles * (7 + 1)  # init + 7 iterations
    # With kernels: a boundary and an interior task per node and sweep.
    assert len(build(T=7).graph) == 4 * 2 * (7 + 1)


def test_kind_labels():
    built = build(with_kernels=False)
    kinds = {}
    for task in built.graph:
        kinds[task.kind] = kinds.get(task.kind, 0) + 1
    assert kinds["init"] == 36
    assert kinds["boundary"] == 20 * 7
    assert kinds["interior"] == 16 * 7


def test_message_counts_base_vs_ca():
    """Base sends every iteration; CA only at refreshes (plus corners)."""
    base = build(steps=1, T=6, with_kernels=False).graph.census()
    ca = build(steps=3, T=6, with_kernels=False).graph.census()
    # 2x2 nodes, 6x6 tiles: two internal seams x 6 tile pairs x 2
    # directions -> 24 messages per exchanging iteration.
    assert base.remote_messages == 24 * 6
    # CA: refreshes at t = 0, 3 -> 2 per seam-edge, plus corner blocks.
    deep = 24 * 2
    corners = ca.remote_messages - deep
    assert corners > 0
    assert ca.remote_messages < base.remote_messages
    # CA moves more bytes total (replication).
    assert ca.remote_bytes > base.remote_bytes


def test_redundant_flops_only_in_ca():
    base = build(steps=1, with_kernels=False).graph
    ca = build(steps=3, with_kernels=False).graph
    assert base.total_flops()[1] == 0
    assert ca.total_flops()[1] > 0
    # Useful flops identical: 9 per core point per iteration.
    assert base.total_flops()[0] == ca.total_flops()[0] == 9 * 24 * 24 * 7


def test_boundary_priority_bias():
    built = build(with_kernels=False)
    t = 3
    boundary = built.graph[("st", 2, 2, t)]
    interior = built.graph[("st", 1, 1, t)]
    assert boundary.kind == "boundary" and interior.kind == "interior"
    assert boundary.priority == interior.priority + 1
    # Earlier iterations always outrank later ones.
    assert built.graph[("st", 1, 1, t)].priority > built.graph[("st", 2, 2, t + 1)].priority


def test_execution_matches_reference():
    built = build(seed=11)
    rep = Engine(built.graph, nacl(4), execute=True).run()
    grid = built.assemble_grid(rep.results)
    ref = built.spec.problem.reference_solution()
    assert np.array_equal(grid, ref)


def test_zero_iterations_returns_initial_grid():
    prob = random_problem(n=12, iterations=0, seed=3)
    spec = StencilSpec.create(prob, nodes=4, tile=3, steps=1)
    built = build_stencil_graph(spec, nacl(4))
    rep = Engine(built.graph, nacl(4), execute=True).run()
    assert np.array_equal(built.assemble_grid(rep.results), prob.initial_grid())


def test_with_kernels_false_has_no_kernels():
    built = build(with_kernels=False)
    assert all(t.kernel is None for t in built.graph)


def test_costs_positive_and_boundary_heavier_at_refresh():
    built = build(steps=3, with_kernels=False)
    g = built.graph
    interior = g[("st", 1, 1, 0)]
    boundary_refresh = g[("st", 2, 2, 0)]
    boundary_quiet = g[("st", 2, 2, 2)]
    assert interior.cost > 0
    # Refresh tasks paste deep strips + redundant halo work.
    assert boundary_refresh.cost > boundary_quiet.cost
    assert boundary_refresh.cost > interior.cost


def test_same_node_tile_flow_is_zero_bytes():
    built = build(with_kernels=False)
    for task in built.graph:
        for flow in task.inputs:
            if flow.tag == "tile":
                assert flow.nbytes == 0


# -- pinned identity ---------------------------------------------------------
#
# The message plan of the wall-clock benchmark's three batch geometries
# (benchmarks/wallclock/batch_workloads.py: CONFIGS) and of one odd
# case, digested at commit 7f16c1c.  A change to the exchange rule that
# moves any (producer, tag, destination node, nbytes), or their order,
# fails here instead of at the benchmark's `messages != census` exit.

PINNED = {
    # name: (nrows, ncols, T, nodes, pgrid, tile, steps) -> tasks, messages, bytes, digest
    "kernel_large": ((2048, 2048, 16, 1, None, 256, 1), 1088, 0, 0, "4f53cda18c2baa0c"),
    "halo_base": ((4096, 256, 64, 2, None, 128, 1), 4160, 4096, 4194304, "a63537ccefa9d8f2"),
    "halo_ca": ((4096, 256, 64, 2, None, 128, 4), 4160, 3008, 4257792, "167944ff4b732c21"),
    # 3x2 process grid, non-square grid, ragged last tile column,
    # iterations % steps != 0
    "odd": ((54, 42, 7, 6, (3, 2), 6, 3), 576, 390, 26784, "1724b53a6138fedc"),
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_pinned_message_plan(name):
    (nrows, ncols, T, nodes, pgrid, tile, steps), tasks, messages, nbytes, digest = PINNED[name]
    spec = StencilSpec.create(
        JacobiProblem(n=nrows, ncols=ncols, iterations=T), nodes=nodes, tile=tile,
        steps=steps, pgrid=ProcessGrid(*pgrid) if pgrid else None,
    )
    graph = build_stencil_graph(spec, nacl(nodes), with_kernels=False).graph
    census = graph.census()
    assert len(graph) == tasks
    assert (census.remote_messages, census.remote_bytes) == (messages, nbytes)
    assert graph.plan_digest() == digest


def test_wrong_shaped_strip_is_rejected_not_broadcast():
    """A strip lands in its consumer's landing slot and the edge it rides
    on carries a ready token, which may arrive from another process on
    `processes`; anything else -- an array of any shape -- must fail
    naming producer and edge, not be taken for the strip."""
    built = build(steps=1, T=2)
    task = built.graph[("st", 3, "boundary", 0)]
    kernels = task.kernel.__self__
    inputs = {}
    for flow in task.inputs:
        producer = built.graph[flow.producer]
        inputs[(flow.producer, flow.tag)] = producer.kernel({}, producer)[flow.tag]
    strips = [copy.tag for copy in kernels.plans[task.key[:-1]].phases[0].copies]
    assert strips and set(inputs.values()) == {READY}
    assert kernels.stencil_task(inputs, task)["tile"] == READY
    edge = (("st", 1, "boundary", -1), "halo:3,boundary")
    assert "dN:2,3" in strips and edge in inputs  # the strip rides on the edge
    inputs[edge] = np.zeros((1, 1))
    with pytest.raises(ValueError,
                       match=r"'halo:3,boundary' from task \('st', 1, 'boundary', -1\)"):
        kernels.stencil_task(inputs, task)
