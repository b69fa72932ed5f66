"""RunResult metrics and the cross-implementation invariant."""

import numpy as np
import pytest

from repro.core.report import RunResult
from repro.core.runner import run
from repro.machine.machine import nacl
from repro.runtime.engine import EngineReport
from repro.stencil.problem import JacobiProblem

from .conftest import random_problem


def make_result(elapsed=2.0, useful=18e9, redundant=0.0):
    problem = JacobiProblem(n=1000, iterations=2)
    engine = EngineReport(
        elapsed=elapsed, tasks_run=10, messages=5, message_bytes=500,
        local_edges=3, local_bytes=100, useful_flops=useful,
        redundant_flops=redundant,
    )
    return RunResult(impl="base-parsec", problem=problem,
                     machine=nacl(4), engine=engine, params={"tile": 100})


def test_gflops_uses_nominal_problem_flops():
    res = make_result(elapsed=2.0)
    assert res.gflops == pytest.approx(res.problem.total_flops / 2.0 / 1e9)


def test_redundant_fraction():
    assert make_result(useful=100.0, redundant=25.0).redundant_fraction == 0.25
    assert make_result(useful=0.0).redundant_fraction == 0.0


def test_speedup_over():
    fast = make_result(elapsed=1.0)
    slow = make_result(elapsed=3.0)
    assert fast.speedup_over(slow) == pytest.approx(3.0)


def test_to_dict_and_summary():
    res = make_result()
    d = res.to_dict()
    assert d["impl"] == "base-parsec" and d["tile"] == 100
    assert d["nodes"] == 4 and d["messages"] == 5
    assert "GFLOP/s" in res.summary()


def test_validator_passes_on_valid_configuration():
    """reference == base-PaRSEC == CA-PaRSEC bit for bit; PETSc's SpMV
    sums in matrix order, so it agrees to rounding only."""
    prob = random_problem(n=20, iterations=5, seed=8)
    ref = prob.reference_solution()
    scale = float(np.max(np.abs(ref)))

    def error(impl):
        # Knobs an implementation has no use for are ignored by run().
        res = run(prob, nacl(4), impl=impl, tile=5, steps=2, mode="execute")
        return float(np.max(np.abs(res.grid - ref)))

    assert error("base-parsec") == 0.0 and error("ca-parsec") == 0.0
    assert error("petsc") <= 1e-12 * max(scale, 1.0)


def test_grid_only_in_execute_mode():
    prob = random_problem(n=16, iterations=3)
    sim = run(prob, impl="base-parsec", machine=nacl(4), tile=4, mode="simulate")
    exe = run(prob, impl="base-parsec", machine=nacl(4), tile=4, mode="execute")
    assert sim.grid is None
    assert isinstance(exe.grid, np.ndarray)
