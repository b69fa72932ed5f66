"""The simulated-vs-measured comparison layer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.exec.compare import HEADERS, compare_backends, format_comparison
from repro.machine.machine import nacl
from tests.conftest import random_problem


@pytest.fixture(scope="module")
def comparison():
    problem = random_problem(n=24, iterations=6, seed=2)
    return compare_backends(problem, impl="ca-parsec", machine=nacl(1),
                            jobs=2, tile=6, steps=2)


def test_sides_share_numerics(comparison):
    """Both backends executed real kernels on the same graph shape --
    the grids must agree bit-for-bit."""
    assert comparison.sim.grid is not None
    assert comparison.real.grid is not None
    assert np.array_equal(comparison.sim.grid, comparison.real.grid)


def test_comparison_metrics_sane(comparison):
    assert comparison.predicted_elapsed > 0
    assert comparison.measured_elapsed > 0
    assert comparison.predicted_gflops > 0
    assert comparison.achieved_gflops > 0
    assert 0 <= comparison.predicted_occupancy <= 1
    assert 0 <= comparison.measured_occupancy <= 1
    assert np.isfinite(comparison.prediction_error)
    assert comparison.jobs == 2
    assert comparison.real.params["backend"] == "threads"
    assert "backend" not in comparison.sim.params  # sim rows stay unchanged


def test_comparison_row_matches_headers(comparison):
    row = comparison.as_row()
    assert len(row) == len(HEADERS)
    table = format_comparison([comparison], title="t")
    for head in HEADERS:
        assert head in table
    assert "ca-parsec" in table

