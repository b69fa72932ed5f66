"""Property tests for chaos recovery (``repro.chaos``).

The resilience contract: under *any* seeded fault plan, a run driven
by :func:`run_with_recovery` finishes and its final grid is
bit-identical to the fault-free answer.  Jacobi is elementwise and
tile cores are exact at every sweep, so checkpoint restart -- even
onto fewer nodes with remapped ownership -- must not perturb a single
bit.  Hypothesis drives the plan seeds; every backend shares the same
interception points, so the property is asserted on the simulator and
both real executors.
"""

from __future__ import annotations

import multiprocessing

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.chaos import (
    CheckpointStore,
    GridInit,
    parse_plan,
    random_plan,
    run_with_recovery,
)
from repro.core.runner import run
from repro.distgrid.partition import ProcessGrid, RemappedGrid
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
        # nodes' sweep-3 tile checkpoints complete the quorum; restarting
        # from scratch is then the correct recovery
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


def test_remapped_grid_preserves_geometry_and_adopts_dead_blocks():
    base = ProcessGrid.square(4)
    shrunk = RemappedGrid.shrink(base, alive=[0, 1, 2])
    assert (shrunk.rows, shrunk.cols) == (base.rows, base.cols)
    assert shrunk.size == 3
    # rank 3's block is adopted by its column buddy, rank 1
    assert shrunk.mapping == (0, 1, 2, 1)
    assert shrunk.rank(1, 1) == 1
    # a whole dead column cannot be remapped safely
    assert RemappedGrid.shrink(base, alive=[1, 3]) is None
    # a whole dead *row* can: each block adopts within its column
    assert RemappedGrid.shrink(base, alive=[2, 3]).mapping == (0, 1, 0, 1)


def test_grid_init_replays_checkpoint_grid(tmp_path):
    store = CheckpointStore(tmp_path)
    store.ensure_meta(ntiles=4, shape=(8, 8), cadence=2)
    rng = np.random.default_rng(0)
    grid = rng.normal(size=(8, 8))
    for i in range(2):
        for j in range(2):
            store.save(2, i, j, grid[i * 4:(i + 1) * 4, j * 4:(j + 1) * 4],
                       r0=i * 4, c0=j * 4)
    assert store.latest_complete() == 2
    loaded = store.load_grid(2)
    assert np.array_equal(loaded, grid)
    init = GridInit(loaded)
    rows, cols = np.meshgrid(np.arange(8), np.arange(8), indexing="ij")
    assert np.array_equal(init(rows, cols), grid)


def test_incomplete_checkpoint_is_not_restartable(tmp_path):
    store = CheckpointStore(tmp_path)
    store.ensure_meta(ntiles=4, shape=(8, 8), cadence=2)
    store.save(2, 0, 0, np.zeros((4, 4)), r0=0, c0=0)
    assert store.latest_complete() is None
    assert store.complete_steps() == []
