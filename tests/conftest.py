"""Shared test fixtures and helpers."""

from __future__ import annotations

import time
from collections import Counter

import numpy as np
import pytest

from repro.core.base_parsec import build_base_graph
from repro.distgrid.boundary import DirichletBC
from repro.machine.machine import nacl
from repro.stencil.kernels import StencilWeights
from repro.stencil.problem import JacobiProblem


def random_problem(
    n: int,
    iterations: int,
    seed: int = 0,
    ncols: int | None = None,
    omega: float = 0.9,
) -> JacobiProblem:
    """A Jacobi problem with reproducible random initial data and a
    non-trivial boundary, exercising every code path that constants
    would mask."""
    rng = np.random.default_rng(seed)
    nc = ncols or n
    values = rng.normal(size=(n, nc))

    def init(rows, cols):
        return values[np.clip(rows, 0, n - 1), np.clip(cols, 0, nc - 1)]

    def bc(rows, cols):
        return np.sin(0.1 * rows) + np.cos(0.2 * cols)

    return JacobiProblem(
        n=n,
        ncols=ncols,
        iterations=iterations,
        init=init,
        bc=DirichletBC(bc),
        weights=StencilWeights.damped_jacobi(omega),
    )


def small_stencil_graph():
    """A ``with_kernels=True`` base graph: 64 tasks of three kinds
    (init / interior / boundary) placed on two nodes."""
    return build_base_graph(random_problem(16, 3), nacl(2), tile=4,
                            with_kernels=True).graph


def assert_report_folds_match_graph(graph, report) -> None:
    """A real executor writes one record per task (the recorder's lane
    tuple); everything the report and the registry say about *which*
    tasks ran is folded from it and must equal a count taken straight
    off the graph."""
    assert report.completed == {task.key for task in graph}
    assert report.tasks_run == len(graph)
    assert sum(report.worker_busy.values()) == pytest.approx(
        sum(report.node_busy.values()))
    by_kind = {dict(labels)["kind"]: count for labels, count
               in report.metrics.labelled("tasks_executed_total").items()}
    assert by_kind == Counter(task.kind for task in graph)


def join_all(workers, timeout: float = 10.0) -> list[str]:
    """Join threads/processes against one shared deadline; returns the
    names of the ones still alive (``[]`` is the pass)."""
    workers = list(workers)
    deadline = time.monotonic() + timeout
    for worker in workers:
        worker.join(max(0.0, deadline - time.monotonic()))
    return [worker.name for worker in workers if worker.is_alive()]


@pytest.fixture
def small_problem() -> JacobiProblem:
    return random_problem(n=24, iterations=6)


@pytest.fixture
def machine4():
    return nacl(4)


@pytest.fixture
def machine16():
    return nacl(16)
