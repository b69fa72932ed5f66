"""Cross-backend conformance: every backend computes the same bits.

The three execution backends -- the discrete-event simulator in
execute mode, the shared-memory thread pool, and the multiprocess
backend with real IPC halo exchange -- run the *same* task graphs.
Dataflow semantics promise that any legal schedule (and any placement
of the schedule onto threads or processes) produces a final grid that
is bit-identical to the single-array reference solver.  This suite
holds every backend to that promise over random shapes, tiles, step
sizes and iteration counts, very much including step sizes that do
not divide the iteration count (the CA remainder-epoch path).
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings, strategies as st

from repro.core.config import IMPLEMENTATIONS
from repro.core.runner import run
from repro.distgrid.boundary import DirichletBC
from repro.exec import fork_available
from repro.machine.machine import nacl
from repro.stencil.kernels import StencilWeights
from repro.stencil.problem import JacobiProblem

pytestmark = [
    pytest.mark.skipif(not fork_available(), reason="processes backend needs POSIX fork"),
    pytest.mark.timeout(600),
]


def random_problem(n, iterations, seed=0, ncols=None):
    """Random data, non-trivial boundary and damped weights, as in the
    shared fixture helpers: constants would mask routing bugs."""
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
        weights=StencilWeights.damped_jacobi(0.9),
    )


def _impl_kwargs(impl: str, tile: int, steps: int) -> dict:
    if impl == "petsc":
        return {}
    if impl == "base-parsec":
        return {"tile": tile}
    return {"tile": tile, "steps": steps}


def _grids(problem, impl, nodes, tile, steps, policy="priority"):
    """Final grid from each backend, same problem, same graph shape."""
    machine = nacl(nodes)
    kwargs = _impl_kwargs(impl, tile, steps)
    sim = run(problem, impl=impl, machine=machine, mode="execute",
              policy=policy, **kwargs)
    threads = run(problem, impl=impl, machine=machine, backend="threads",
                  jobs=2, policy=policy, **kwargs)
    procs = run(problem, impl=impl, machine=machine, backend="processes",
                procs=nodes, jobs=1, policy=policy, **kwargs)
    return sim.grid, threads.grid, procs.grid


@st.composite
def conformance_configs(draw):
    """(impl, problem, nodes, tile, steps) always valid for a 2x2 grid:
    the grid is an exact multiple of 2*tile, so every tile is full-size
    and any steps <= tile is legal."""
    impl = draw(st.sampled_from(IMPLEMENTATIONS))
    nodes = draw(st.sampled_from([1, 2, 4]))
    tile = draw(st.integers(4, 6))
    n = 2 * tile * draw(st.integers(1, 2))
    ncols = 2 * tile * draw(st.integers(1, 2))
    iterations = draw(st.integers(1, 7))
    steps = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**16))
    return impl, n, ncols, iterations, tile, steps, nodes, seed


@settings(max_examples=8, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(conformance_configs())
# A fixed anchor checked on every run, not only when drawn: each
# implementation on one 20^2 problem, tile 5, four nodes, CA at s=2.
@example(config=("base-parsec", 20, 20, 5, 5, 2, 4, 8))
@example(config=("ca-parsec", 20, 20, 5, 5, 2, 4, 8))
@example(config=("petsc", 20, 20, 5, 5, 2, 4, 8))
def test_backends_bit_identical(config):
    impl, n, ncols, iterations, tile, steps, nodes, seed = config
    if impl == "petsc":
        # The rank layout needs one grid entry per rank.
        assume(n * ncols >= nodes * nacl(nodes).node.cores)
    problem = random_problem(n=n, iterations=iterations, seed=seed, ncols=ncols)
    sim_grid, threads_grid, procs_grid = _grids(
        problem, impl, nodes, tile, steps
    )
    label = (f"{impl}, {n}x{ncols}, T={iterations}, tile={tile}, "
             f"steps={steps}, nodes={nodes}")
    assert np.array_equal(sim_grid, threads_grid), f"sim != threads for {label}"
    assert np.array_equal(sim_grid, procs_grid), f"sim != processes for {label}"
    ref = problem.reference_solution()
    if impl == "petsc":
        # SpMV sums in matrix order, not stencil order: equal across
        # backends bit for bit, equal to the reference to rounding.
        assert np.allclose(sim_grid, ref, rtol=1e-12, atol=1e-12), label
    else:
        assert np.array_equal(sim_grid, ref), f"backends != reference for {label}"


def test_ca_nondividing_steps_across_backends():
    """The remainder epoch (s does not divide T) explicitly, on every
    backend: 12 iterations in steps of 5 is 5 + 5 + 2."""
    problem = random_problem(n=20, iterations=12, seed=7)
    sim_grid, threads_grid, procs_grid = _grids(
        problem, "ca-parsec", nodes=4, tile=5, steps=5
    )
    ref = problem.reference_solution()
    assert np.array_equal(sim_grid, ref)
    assert np.array_equal(threads_grid, ref)
    assert np.array_equal(procs_grid, ref)


@pytest.mark.parametrize("impl", IMPLEMENTATIONS)
def test_all_impls_on_processes_match_reference(impl):
    """One deterministic mid-size case per implementation through the
    multiprocess backend alone (the conformance suite's anchor)."""
    problem = random_problem(n=24, iterations=6, seed=3)
    result = run(problem, impl=impl, machine=nacl(4), backend="processes",
                 procs=4, jobs=2, **_impl_kwargs(impl, tile=6, steps=3))
    assert result.params["backend"] == "processes"
    assert result.params["procs"] == 4
    ref = problem.reference_solution()
    if impl == "petsc":  # SpMV summation order vs the stencil reference
        assert np.allclose(result.grid, ref, rtol=1e-12, atol=1e-12)
    else:
        assert np.array_equal(result.grid, ref)


@pytest.mark.parametrize("impl", IMPLEMENTATIONS)
def test_serve_path_matches_direct_run(impl):
    """The serving layer (warm slots, batching, reduced outcomes) is
    transparent: grids served over the threads and processes pools are
    bit-identical to direct run() on every backend, per implementation."""
    from repro.serve import ServiceConfig, SolveRequest, SolverService

    problem = random_problem(n=24, iterations=6, seed=13)
    sim_grid, threads_grid, procs_grid = _grids(
        problem, impl, nodes=4, tile=6, steps=3
    )
    assert np.array_equal(sim_grid, threads_grid)
    assert np.array_equal(sim_grid, procs_grid)
    request_kwargs = dict(problem=problem, impl=impl, machine=nacl(4))
    if impl != "petsc":
        request_kwargs["tile"] = 6
    if impl == "ca-parsec":
        request_kwargs["steps"] = 3
    with SolverService(ServiceConfig(workers=1, cache=False)) as service:
        served_threads = service.submit(SolveRequest(
            backend="threads", jobs=2, **request_kwargs
        )).result(timeout=300)
        served_procs = service.submit(SolveRequest(
            backend="processes", jobs=1, **request_kwargs
        )).result(timeout=300)
    assert np.array_equal(served_threads.grid, sim_grid)
    assert np.array_equal(served_procs.grid, sim_grid)
