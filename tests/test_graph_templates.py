"""Stencil graphs are templates built once per shape and bound per run
(``repro.core.dataflow``): what a bound graph must equal, what a second
build may not redo, what a template -- the paper's graph and its
node-block lowering -- may not keep alive, and that instrumenting one
run's tasks never reaches the next run's.
"""

from __future__ import annotations

import gc
import mmap
import sys
import threading
import types
import weakref
from contextlib import nullcontext

import numpy as np
import pytest

from repro.chaos import parse_plan, run_with_recovery
from repro.core import dataflow
from repro.core.dataflow import TEMPLATES, StencilKernels, build_stencil_graph
from repro.core.runner import run
from repro.core.spec import StencilSpec
from repro.distgrid.boundary import DirichletBC
from repro.distgrid.partition import ProcessGrid
from repro.exec import fork_available
from repro.machine.machine import nacl
from repro.stencil.problem import JacobiProblem
from repro.stencil.variable import VariableStencilWeights

from .conftest import join_all, random_problem
from .test_exchange_plan import _NoCorners
from .test_seams import slab_cells

pytestmark = pytest.mark.timeout(300)

BACKENDS = ["sim", "threads", pytest.param("processes", marks=pytest.mark.skipif(
    not fork_available(), reason="needs POSIX fork"))]


@pytest.fixture(autouse=True)
def empty_memo():
    TEMPLATES.clear()
    yield
    TEMPLATES.clear()


def facts(graph) -> dict:
    """Everything a backend or an analysis reads off a graph, kernels
    aside, in graph order."""
    census = graph.census()
    return {
        "tasks": [(t.key, t.node, tuple((f.producer, f.tag, f.nbytes) for f in t.inputs),
                   t.cost, t.flops, t.redundant_flops, t.priority, t.kind, t.out_nbytes)
                  for t in graph],
        "consumers": graph.consumers,
        "out_tags": graph.out_tags,
        "plan": graph.plan_digest(),
        "census": (census.local_edges, census.local_bytes, census.remote_messages,
                   census.remote_bytes, census.by_pair),
        "flops": graph.total_flops(),
    }


def retained_graphs(template) -> list:
    """The paper's graph and the node-block graph, whichever were made."""
    return [graph for graph in (template.graph, template.blocks and template.blocks[0])
            if graph is not None]


def retained_facts() -> dict:
    return {key: [facts(graph) for graph in retained_graphs(template)]
            for key, template in TEMPLATES._items.items()}


#: Node-block tasks of one sweep of the 24^2, tile-6, four-node shape
#: the tests below use: per node one boundary and one interior task.
BLOCKS = 4 * 2


def spec_of(problem, nodes=4, tile=6, steps=1, pgrid=None) -> StencilSpec:
    return StencilSpec.create(problem, nodes=nodes, tile=tile, steps=steps, pgrid=pgrid)


# -- (a) a bound graph is the graph --------------------------------------


@pytest.mark.parametrize("shape", [
    dict(n=24, iterations=5),
    dict(n=24, iterations=5, steps=2),
    dict(n=24, iterations=6, steps=4),
    dict(n=54, ncols=42, iterations=7, steps=3, nodes=6, pgrid=ProcessGrid(3, 2)),
    dict(n=24, iterations=0),
    dict(n=24, iterations=0, steps=3),
], ids=lambda s: "-".join(f"{k}{v}" for k, v in s.items() if k != "pgrid"))
def test_bound_graph_equals_a_build_from_an_empty_memo(shape):
    shape = dict(shape)
    geometry = {k: shape.pop(k) for k in ("nodes", "steps", "pgrid") if k in shape}
    nodes = geometry.get("nodes", 4)

    def build(seed):
        spec = spec_of(random_problem(seed=seed, **shape), tile=6, **geometry)
        return build_stencil_graph(spec, nacl(nodes))

    build(1)
    bound = build(2)
    retained = retained_facts()
    TEMPLATES.clear()
    fresh = build(3)
    assert facts(bound.graph) == facts(fresh.graph)
    assert retained_facts() == retained  # and so is the template
    # Three builds, three sets of tasks, kernels and grids.
    builds = [bound, fresh]
    assert all(a is not b for a, b in zip(*(b.graph for b in builds)))
    owners = {id(task.kernel.__self__) for b in builds for task in b.graph}
    assert len(owners) == 2 and bound.grid is not fresh.grid
    for b in builds:
        assert all(isinstance(t.kernel.__self__, StencilKernels) for t in b.graph)
        assert all(t.kernel.__self__.grid is b.grid for t in b.graph)
    assert list(bound.spec.exchange_plan()) == list(fresh.spec.exchange_plan())
    assert bound.spec.exchange_plan() == fresh.spec.exchange_plan()
    timing_only = build_stencil_graph(
        spec_of(random_problem(seed=4, **shape), tile=6, **geometry), nacl(nodes),
        with_kernels=False)
    assert timing_only.grid is None
    assert all(t.kernel is None for t in timing_only.graph)
    assert len(TEMPLATES._items) == 1  # the same template, with kernels or without
    # ... and the simulator's view of a build is the paper's graph itself.
    assert facts(bound.per_tile().graph) == facts(timing_only.graph)


# -- (b) same shape, different data --------------------------------------


def _ramp(rows, cols):
    return 0.01 * rows - 0.02 * cols


def _forcing(rows, cols):
    return 1e-3 * np.sin(0.3 * rows) * np.cos(0.2 * cols)


def _conductivity(rows, cols):
    return 0.2 + 0.01 * np.sin(0.5 * rows + 0.25 * cols)


def same_shape_problems(n=24, iterations=5) -> list[JacobiProblem]:
    return [
        JacobiProblem(n=n, iterations=iterations, init=0.25),
        JacobiProblem(n=n, iterations=iterations, init=0.75),
        JacobiProblem(n=n, iterations=iterations, init=_ramp),
        JacobiProblem(n=n, iterations=iterations, init=_ramp, source=_forcing),
        JacobiProblem(n=n, iterations=iterations, init=_ramp,
                      weights=VariableStencilWeights(north=_conductivity)),
        JacobiProblem(n=n, iterations=iterations, init=0.25, bc=DirichletBC(_ramp)),
    ]


@pytest.mark.parametrize("backend", BACKENDS)
def test_same_shape_different_data_builds_once(backend, monkeypatch):
    counts = {"flows": 0, "templates": 0}
    real_flow, real_template = dataflow.Flow, dataflow.Template

    def counting_flow(*args):
        counts["flows"] += 1
        return real_flow(*args)

    def counting_template(*args):
        counts["templates"] += 1
        return real_template(*args)

    monkeypatch.setattr(dataflow, "Flow", counting_flow)
    monkeypatch.setattr(dataflow, "Template", counting_template)
    knobs = dict(impl="ca-parsec", tile=6, steps=3, mode="execute", backend=backend)
    if backend != "sim":
        knobs["jobs"] = 1
    after_each = []
    for problem in same_shape_problems():
        grid = run(problem, nacl(4), **knobs).grid
        assert np.array_equal(grid, problem.reference_solution())
        after_each.append(dict(counts))
    assert after_each[0]["templates"] == 1 and after_each[0]["flows"] > 0
    assert all(after == after_each[0] for after in after_each[1:])
    TEMPLATES.clear()  # ... and the counts repeat exactly
    run(same_shape_problems()[0], nacl(4), **knobs)
    assert counts == {key: 2 * value for key, value in after_each[0].items()}


# -- (c) instrumenting a run does not reach the next ------------------------


def _plain_kernels(graph) -> bool:
    return all(isinstance(getattr(t.kernel, "__self__", None), StencilKernels) for t in graph)


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_a_chaos_run_leaves_the_template_and_the_next_run_clean(backend):
    knobs = dict(impl="ca-parsec", tile=6, steps=3, backend=backend, pgrid=ProcessGrid(2, 2))
    if backend != "sim":
        knobs["jobs"] = 1
    first, second = random_problem(24, 6, seed=1), random_problem(24, 6, seed=2)
    clean = run(first, nacl(4), mode="execute", **knobs)
    assert _plain_kernels(clean.graph)
    retained = retained_facts()
    chaos = run_with_recovery(first, parse_plan("kill:node=1,step=4;slow:node=2,factor=3"),
                              machine=nacl(4), **knobs)
    assert chaos.recovered and np.array_equal(chaos.grid, clean.grid)
    after = retained_facts()
    assert {key: after[key] for key in retained} == retained
    assert all(t.kernel is None for template in TEMPLATES._items.values()
               for graph in retained_graphs(template) for t in graph)
    again = run(second, nacl(4), mode="execute", **knobs)
    assert _plain_kernels(again.graph)  # no chaos wrapper, no inflated cost
    assert facts(again.graph) == facts(clean.graph)
    assert np.array_equal(again.grid, second.reference_solution())


#: (pass, backend): on the simulator ``coarsen`` merges the paper's
#: per-tile tasks; on ``threads`` the grid is one node block, which it
#: rewrites too once the block is cut into row slabs -- a sweep's slabs
#: share a level -- so that case cuts a slab per tile row, and is named
#: ``slabs``.
@pytest.mark.parametrize("passes,backend", [("coarsen", "sim"),
                                            pytest.param("coarsen", "threads", id="slabs")])
def test_a_rewritten_run_leaves_the_template_and_the_next_run_clean(passes, backend):
    knobs = dict(impl="base-parsec", tile=6, mode="execute", backend=backend)
    if backend != "sim":
        knobs["jobs"] = 1
    first, second = random_problem(24, 6, seed=3), random_problem(24, 6, seed=4)
    with slab_cells(1) if backend == "threads" else nullcontext():
        clean = run(first, nacl(4), **knobs)
        retained = retained_facts()
        rewritten = run(first, nacl(4), passes=passes, **knobs)
        assert np.array_equal(rewritten.grid, clean.grid)
        assert facts(rewritten.graph) != facts(clean.graph)
        after = retained_facts()
        assert {key: after[key] for key in retained} == retained
        again = run(second, nacl(4), **knobs)
        assert _plain_kernels(again.graph) and facts(again.graph) == facts(clean.graph)
        assert np.array_equal(again.grid, second.reference_solution())
        # ... and the rewritten run's build hits the memo the second time round.
        assert np.array_equal(run(second, nacl(4), passes=passes, **knobs).grid, again.grid)


# -- (d) what a template may keep alive -------------------------------------


def reachable_from(roots) -> list:
    """Every object reachable from ``roots`` without walking through a
    class, module or function (a class reaches its module's globals,
    which reach everything)."""
    opaque = (type, types.ModuleType, types.FunctionType, types.BuiltinFunctionType,
              types.MethodDescriptorType, types.GetSetDescriptorType)
    seen, stack, found = set(), list(roots), []
    while stack:
        obj = stack.pop()
        if id(obj) in seen or isinstance(obj, opaque):
            continue
        seen.add(id(obj))
        found.append(obj)
        stack.extend(gc.get_referents(obj))
    return found


def test_a_template_reaches_no_array_mapping_kernels_or_problem():
    for problem in same_shape_problems():
        run(problem, nacl(4), impl="ca-parsec", tile=6, steps=3, mode="execute",
            backend="threads", jobs=1)
    run(random_problem(24, 4), nacl(4), impl="base-parsec", tile=6, mode="execute")
    assert len(TEMPLATES._items) == 2
    # The walk goes through the lowering too: node-block graphs, their
    # kernels' plans and the landing store's layout.
    lowered = [template.blocks for template in TEMPLATES._items.values()]
    assert all(blocks is not None for blocks in lowered)
    objects = reachable_from([TEMPLATES._items])
    assert len(objects) > TEMPLATES.retained_tasks()  # the walk went in
    ids = {id(obj) for obj in objects}
    for graph, plans in lowered:
        assert id(graph) in ids and id(plans) in ids
        assert all(id(plan) in ids for plan in plans.values())
    banned = (np.ndarray, mmap.mmap, StencilKernels, JacobiProblem, types.MethodType)
    assert [type(obj).__name__ for obj in objects if isinstance(obj, banned)] == []


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_runs_grid_dies_with_its_result_while_the_template_stays(backend):
    knobs = dict(impl="ca-parsec", tile=6, steps=3, mode="execute", backend=backend)
    if backend != "sim":
        knobs["jobs"] = 1
    result = run(random_problem(24, 5, seed=7), nacl(4), **knobs)
    mapping, graph = weakref.ref(result.grid.base), weakref.ref(result.graph)
    kernels = weakref.ref(next(iter(result.graph)).kernel.__self__)
    del result
    gc.collect()
    assert mapping() is None and graph() is None and kernels() is None
    # The node-block graph always (the builder's with kernels), the
    # paper's graph where the simulator ran it; threads builds the grid
    # as one node block (one task a sweep).
    blocks = 1 if backend == "threads" else BLOCKS
    assert TEMPLATES.retained_tasks() == blocks * 6 + (16 * 6 if backend == "sim" else 0)


def test_retained_tasks_stay_under_the_bound(monkeypatch):
    monkeypatch.setattr(TEMPLATES, "max_tasks", 200)

    def build(iterations):
        spec = spec_of(JacobiProblem(n=24, iterations=iterations), tile=6)
        return build_stencil_graph(spec, nacl(4), with_kernels=False).graph

    def retained_iterations():
        return [key[3] for key in TEMPLATES._items]

    assert len(build(4)) == 80 and len(build(5)) == 96
    assert retained_iterations() == [4, 5]
    build(4)  # used again: 5 is now the least recently used
    assert len(build(1)) == 32  # 80 + 96 + 32 > 200
    assert retained_iterations() == [4, 1]
    assert len(build(12)) == 208  # larger than the bound: built, not retained
    assert retained_iterations() == [4, 1]
    assert len(build(9)) == 160  # evicts the older of the two
    assert retained_iterations() == [1, 9]
    assert TEMPLATES.retained_tasks() == 192 <= TEMPLATES.max_tasks


def test_clear_racing_put_never_breaks_the_tables_walk():
    """``put`` walks the table (``retained_tasks``) under the lock; a
    ``clear`` that did not take it could empty the table mid-walk."""
    cache = dataflow._TemplateCache(max_tasks=10**6)
    done, errors = threading.Event(), []

    def putting():
        try:
            k = 0
            while not done.is_set():
                cache.put(types.SimpleNamespace(key=k % 128, tasks=1))
                k += 1
        except Exception as exc:  # noqa: BLE001 - the failure under test
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    putter = threading.Thread(target=putting)
    try:
        putter.start()
        for _ in range(100):
            while len(cache._items) < 64 and putter.is_alive():
                pass  # a long walk for every put until the next clear
            cache.clear()
    finally:
        done.set()
        putter.join(30)
        sys.setswitchinterval(interval)
    assert errors == [] and not putter.is_alive()
    assert cache.retained_tasks() <= 128


def test_the_bound_is_a_module_constant_that_holds_the_benchmark_shapes():
    assert TEMPLATES.max_tasks == dataflow.TEMPLATE_TASKS >= 2 * 4160


# -- (e) a spec subclass is its own shape ------------------------------------


def test_a_spec_subclass_with_equal_fields_gets_its_own_template():
    def corner_flows(cls) -> int:
        real = spec_of(JacobiProblem(n=24, iterations=6), tile=4, steps=3)
        spec = cls(problem=real.problem, partition=real.partition, steps=3)
        graph = build_stencil_graph(spec, nacl(4), with_kernels=False).graph
        return sum(flow.tag.startswith("c") for task in graph for flow in task.inputs)

    with_corners = corner_flows(StencilSpec)
    assert with_corners > 0 and corner_flows(_NoCorners) == 0
    assert corner_flows(StencilSpec) == with_corners  # not the subclass's template
    assert len(TEMPLATES._items) == 2


# -- (f) racing first builds --------------------------------------------------


def test_two_threads_first_building_one_shape_both_solve_correctly():
    problems = [random_problem(24, 5, seed=s) for s in (11, 12)]
    barrier = threading.Barrier(2)
    grids: dict[int, np.ndarray] = {}

    def solve(k):
        barrier.wait(30)
        grids[k] = run(problems[k], nacl(4), impl="ca-parsec", tile=6, steps=3,
                       mode="execute").grid

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            TEMPLATES.clear()
            threads = [threading.Thread(target=solve, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            assert join_all(threads, 120) == []
            for k, problem in enumerate(problems):
                assert np.array_equal(grids.pop(k), problem.reference_solution())
            assert TEMPLATES.retained_tasks() == 16 * 6 + BLOCKS * 6
    finally:
        sys.setswitchinterval(interval)
