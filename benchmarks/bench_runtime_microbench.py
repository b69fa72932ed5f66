"""Microbenchmarks of the runtime substrate itself (wall-clock).

Unlike the figure benches (which report *virtual* time from the
machine model), these measure the real throughput of the simulator
and of the numpy stencil kernel on this host -- the numbers that
bound how large a configuration the harness can sweep.
"""

import numpy as np
import pytest

from repro.core.base_parsec import build_base_graph
from repro.machine.machine import nacl
from repro.runtime.engine import Engine
from repro.stencil.kernels import StencilWeights, jacobi_update_region
from repro.stencil.problem import JacobiProblem

PROBLEM = JacobiProblem(n=2880, iterations=10)


def test_engine_task_throughput(benchmark, show):
    """Discrete-event engine: simulated tasks per wall-second."""
    machine = nacl(16)

    built = build_base_graph(PROBLEM, machine, tile=288, with_kernels=False)

    def _run():
        return Engine(built.graph, machine).run()

    report = benchmark.pedantic(_run, rounds=3, iterations=1)
    rate = report.tasks_run / benchmark.stats["mean"]
    show(f"engine throughput: {rate:,.0f} simulated tasks/s "
         f"({report.tasks_run} tasks, {report.messages} messages)")
    assert report.tasks_run == len(built.graph)


@pytest.mark.parametrize("form", ["fresh", "out", "out-view"])
def test_kernel_gflops_host(benchmark, show, form):
    """Real numpy 5-point kernel throughput on this host, in the three
    call forms: a fresh result, a contiguous ``out``, and the strided
    ``new[rows, cols]`` view the task bodies and the reference pass."""
    ext = np.random.default_rng(0).random((1026, 1026))
    weights = StencilWeights.laplace_jacobi()
    rows = cols = slice(1, 1025)
    out = {"fresh": None, "out": np.empty((1024, 1024)),
           "out-view": np.empty_like(ext)[rows, cols]}[form]

    benchmark(jacobi_update_region, ext, weights, rows, cols, out)
    points = 1024 * 1024
    gflops = 9 * points / benchmark.stats["mean"] / 1e9
    show(f"host kernel ({form}): {gflops:.2f} GFLOP/s on a 1024x1024 tile "
         "(paper nodes: ~11 NaCL / ~43.5 Stampede2 with all cores)")
    assert gflops > 0.1
