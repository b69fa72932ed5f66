"""Property tests for chaos recovery (``repro.chaos``).

The resilience contract: under *any* seeded fault plan, a run driven
by :func:`run_with_recovery` finishes and its final grid is
bit-identical to the fault-free answer.  Jacobi is elementwise and
tile cores are exact at every sweep, so checkpoint restart -- even
onto fewer nodes, freshly partitioned -- must not perturb a single
bit.  Hypothesis drives the plan seeds; every backend shares the same
interception points, so the property is asserted on the simulator and
both real executors.
"""

from __future__ import annotations

import multiprocessing
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import (
    CheckpointError,
    CheckpointStore,
    GridInit,
    parse_plan,
    random_plan,
    run_with_recovery,
)
from repro.chaos import harness
from repro.chaos.harness import ChaosContext
from repro.chaos.inject import FaultInjector
from repro.core.runner import run
from repro.exec import fork_available
from repro.machine.machine import nacl

from .conftest import random_problem
from .test_result_grid import shared_mappings

pytestmark = pytest.mark.timeout(300)


def _baseline(problem, impl="ca-parsec", backend="sim", steps=3):
    kwargs = {} if impl == "petsc" else {"tile": 6, "steps": steps}
    return run(
        problem, impl=impl, machine=nacl(4), mode="execute",
        backend=backend, **kwargs,
    )


# -- the headline property --------------------------------------------------


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
@pytest.mark.parametrize("impl", ["ca-parsec", "base-parsec"])
def test_any_plan_recovers_bit_identical_sim(impl, seed):
    problem = random_problem(n=24, iterations=6)
    plan = random_plan(seed, nodes=4, iterations=6,
                       kinds=("kill", "delay", "slow", "drop"))
    baseline = _baseline(problem, impl=impl)
    chaos = run_with_recovery(
        problem, plan, impl=impl, machine=nacl(4), tile=6, steps=3,
        backend="sim",
    )
    assert np.array_equal(chaos.grid, baseline.grid)
    if any(r["kind"] == "kill" for r in chaos.faults):
        assert chaos.recovered
        assert chaos.attempts == len(chaos.restarts) + 1


@settings(max_examples=5, deadline=None)
@given(seed=st.integers(min_value=0, max_value=10_000))
def test_any_plan_recovers_bit_identical_threads(seed):
    problem = random_problem(n=24, iterations=6)
    plan = random_plan(seed, nodes=4, iterations=6,
                       kinds=("kill", "delay", "slow"))
    baseline = _baseline(problem, backend="threads")
    chaos = run_with_recovery(
        problem, plan, impl="ca-parsec", machine=nacl(4), tile=6, steps=3,
        backend="threads", jobs=2,
    )
    assert np.array_equal(chaos.grid, baseline.grid)


# -- directed kills ---------------------------------------------------------


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_kill_at_superstep_boundary_restarts_from_checkpoint(backend, tmp_path):
    problem = random_problem(n=24, iterations=6)
    plan = parse_plan("kill:node=3,step=1s", seed=0)
    baseline = _baseline(problem, backend=backend)
    chaos = run_with_recovery(
        problem, plan, impl="ca-parsec", machine=nacl(4), tile=6, steps=3,
        backend=backend, checkpoint_dir=tmp_path,
    )
    assert np.array_equal(chaos.grid, baseline.grid)
    assert chaos.recovered
    (restart,) = chaos.restarts
    assert restart["node"] == 3
    assert restart["nodes_after"] == 3
    complete = CheckpointStore(tmp_path / "ckpt").complete_steps()
    if backend == "sim":
        # the kill fires at sweep 3 (1s of s=3), right after the sweep-3
        # checkpoint completed -- recovery resumes there, not from scratch
        assert restart["checkpoint"] == 3
        assert 3 in complete
    else:
        # on real threads node 3's kill can fire before the other
        # nodes' sweep-3 rectangles cover the grid; restarting from
        # scratch is then the correct recovery
        assert restart["checkpoint"] is None or restart["checkpoint"] in complete


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
def test_kill_recovers_on_processes_backend():
    problem = random_problem(n=24, iterations=6)
    plan = parse_plan("kill:node=3,step=1s", seed=0)
    baseline = _baseline(problem, backend="threads")
    chaos = run_with_recovery(
        problem, plan, impl="ca-parsec", machine=nacl(4), tile=6, steps=3,
        backend="processes", jobs=1,
    )
    assert np.array_equal(chaos.grid, baseline.grid)
    assert chaos.recovered
    assert chaos.restarts[0]["nodes_after"] == 3


@pytest.mark.skipif(not fork_available(), reason="needs fork start method")
@pytest.mark.parametrize("impl", ["base-parsec", "ca-parsec"])
def test_kill_during_the_last_sweep_recovers_through_a_fresh_grid(impl):
    """Node 1 dies in sweep 5 of 6, when final cores are landing in the
    first attempt's grid; the restart builds its own."""
    problem = random_problem(n=24, iterations=6, seed=13)
    truth = problem.reference_solution()
    before = shared_mappings()
    chaos = run_with_recovery(
        problem, parse_plan("kill:node=1,step=5", seed=0), impl=impl,
        machine=nacl(4), tile=6, steps=3, backend="processes", jobs=1,
    )
    assert chaos.recovered
    assert np.array_equal(chaos.grid, truth)
    assert shared_mappings() == before + 1  # the survivor's grid, no rings
    del chaos
    assert shared_mappings() == before
    assert multiprocessing.active_children() == []


def test_petsc_kill_restarts_from_scratch():
    """petsc has no tile checkpoints; a lost node restarts the whole
    solve on the survivors.  Its row distribution (and hence the SpMV
    summation order) changes with the rank count, so the answer is
    numerically equal but not bit-identical -- unlike the stencil
    impls, whose tile kernels are partition-independent."""
    problem = random_problem(n=24, iterations=6)
    plan = parse_plan("kill:node=2,step=3", seed=0)
    baseline = _baseline(problem, impl="petsc", backend="threads")
    chaos = run_with_recovery(
        problem, plan, impl="petsc", machine=nacl(4), steps=1,
        backend="threads",
    )
    np.testing.assert_allclose(chaos.grid, baseline.grid, rtol=0, atol=1e-12)
    assert chaos.restarts[0]["checkpoint"] is None


def test_two_kills_two_restarts():
    problem = random_problem(n=24, iterations=6)
    plan = parse_plan("kill:node=1,step=2;kill:node=0,step=4", seed=0)
    baseline = _baseline(problem)
    chaos = run_with_recovery(
        problem, plan, impl="ca-parsec", machine=nacl(4), tile=6, steps=3,
        backend="sim",
    )
    assert np.array_equal(chaos.grid, baseline.grid)
    assert len(chaos.restarts) == 2
    assert chaos.restarts[-1]["nodes_after"] == 2


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_a_restart_partitions_the_survivors_like_a_fresh_run(backend):
    """Node 3 of 4 dies: the restart runs on the 1 x 3 partition a fresh
    three-node run gets, whose tiles are 6 and 2 cells wide, so its CA
    step is clamped from 3 to 2."""
    problem = random_problem(n=24, iterations=6)
    chaos = run_with_recovery(
        problem, parse_plan("kill:node=3,step=1s", seed=0), impl="ca-parsec",
        machine=nacl(4), tile=6, steps=3, backend=backend,
    )
    assert np.array_equal(chaos.grid, _baseline(problem, backend=backend).grid)
    assert chaos.result.machine.nodes == 3
    assert chaos.result.params["steps"] == 2


@pytest.mark.parametrize("backend", [
    "sim", "threads",
    pytest.param("processes", marks=pytest.mark.skipif(
        not fork_available(), reason="needs fork start method"))])
def test_losing_a_whole_process_grid_column_recovers_bit_identical(backend):
    """Nodes 0 and then 1 die, which empties the first column of the
    2 x 2 process grid.  The restarts run on 1 x 3 and then 1 x 2
    partitions, with the step clamped to their narrowest tiles (1, then
    3 cells)."""
    problem = random_problem(n=24, iterations=8)
    knobs = dict(impl="ca-parsec", machine=nacl(4), tile=7, steps=4, backend=backend)
    baseline = run(problem, mode="execute", **knobs)
    chaos = run_with_recovery(
        problem, parse_plan("kill:node=0,step=2;kill:node=1,step=5", seed=0), **knobs)
    assert np.array_equal(chaos.grid, baseline.grid)
    assert [restart["nodes_after"] for restart in chaos.restarts] == [3, 2]
    assert chaos.result.params["steps"] == 3


@pytest.mark.parametrize("step", [2, None])
@pytest.mark.parametrize("backend", ["threads", "sim"])
def test_a_delay_stalls_one_task_of_its_node_and_sweep(backend, step, monkeypatch):
    """One node of 2^20 cells: a sweep is two row-slab tasks on
    ``threads`` and 256 tile tasks on the simulator, and the delay
    lands on exactly one of them (a step-less one on the first task
    that asks)."""
    problem = random_problem(n=1024, iterations=4)
    secs = 0.25
    plan = f"delay:node=0,secs={secs}" + (f",step={step}" if step is not None else "")
    slept: list[float] = []
    monkeypatch.setattr(harness, "time", SimpleNamespace(
        sleep=slept.append, perf_counter=time.perf_counter, monotonic=time.monotonic))
    knobs = dict(impl="base-parsec", machine=nacl(1), tile=64, backend=backend,
                 mode="execute", **({"jobs": 2} if backend == "threads" else {}))
    plain = run(problem, **knobs)
    injector = FaultInjector(parse_plan(plan))
    delayed = run(problem, chaos=ChaosContext(injector), **knobs)
    assert np.array_equal(delayed.grid, plain.grid)
    if backend == "sim":
        extra = sum(task.cost for task in delayed.graph) - sum(task.cost for task in plain.graph)
        assert extra == pytest.approx(secs) and slept == []
    else:
        assert len(delayed.graph) == 2 * 5 and slept == [secs]
    assert [fault["kind"] for fault in injector.firing_log()] == ["delay"]


def test_restart_budget_exhausted_raises():
    from repro.exec import NodeLostError

    problem = random_problem(n=24, iterations=6)
    plan = parse_plan("kill:node=1,step=2", seed=0)
    with pytest.raises(NodeLostError):
        run_with_recovery(
            problem, plan, impl="ca-parsec", machine=nacl(4), tile=6,
            steps=3, backend="sim", max_restarts=0,
        )


# -- the recovery building blocks ------------------------------------------


def test_grid_init_replays_checkpoint_grid(tmp_path):
    store = CheckpointStore(tmp_path)
    store.ensure_meta(shape=(8, 8))
    rng = np.random.default_rng(0)
    grid = rng.normal(size=(8, 8))
    for r0 in (0, 4):
        for c0 in (0, 4):
            store.save(2, r0, c0, grid[r0:r0 + 4, c0:c0 + 4])
    assert store.latest_complete() == 2
    loaded = store.load_grid(2)
    assert np.array_equal(loaded, grid)
    init = GridInit(loaded)
    rows, cols = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    assert np.array_equal(init(rows, cols), grid)


def test_incomplete_checkpoint_is_not_restartable(tmp_path):
    store = CheckpointStore(tmp_path)
    store.ensure_meta(shape=(8, 8))
    store.save(2, 0, 0, np.zeros((4, 4)))
    assert store.latest_complete() is None
    assert store.complete_steps() == []


def test_a_step_is_complete_once_two_partitions_rectangles_cover_the_grid(tmp_path):
    """Two attempts with different partitions write one step into one
    directory: it is complete only once their rectangles cover every
    cell, and where they overlap they agree."""
    store = CheckpointStore(tmp_path)
    store.ensure_meta(shape=(8, 8))
    grid = np.random.default_rng(1).normal(size=(8, 8))
    # a 2 x 2 attempt saved its northern blocks, then lost a node ...
    store.save(4, 0, 0, grid[:4, :4])
    store.save(4, 0, 4, grid[:4, 4:])
    # ... and the 1 x 2 restart has saved its western block so far
    store.save(4, 0, 0, grid[:, :4])
    assert store.complete_steps() == []  # the south-east quadrant is missing
    with pytest.raises(CheckpointError, match="48 of 64 cells"):
        store.load_grid(4)
    store.save(4, 0, 4, grid[:, 4:])
    assert store.latest_complete() == 4
    assert np.array_equal(store.load_grid(4), grid)


def test_an_unreadable_store_has_no_latest_checkpoint(tmp_path):
    store = CheckpointStore(tmp_path)
    store.meta_path.write_text("{torn")
    store.save(2, 0, 0, np.zeros((8, 8)))
    assert store.latest_complete() is None
