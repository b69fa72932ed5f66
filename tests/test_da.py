"""DMDA-lite: 5-point operator assembly and ghost analysis."""

import numpy as np
import pytest

from repro.distgrid.boundary import DirichletBC
from repro.petsclite.da import (
    ghost_indices,
    ghost_window_groups,
    grid_to_vec,
    jacobi_operator,
    natural_layout,
    stencil_coo,
    vec_to_grid,
)
from repro.stencil.kernels import StencilWeights
from repro.stencil.reference import jacobi_reference

from .conftest import random_problem


def test_grid_vec_roundtrip():
    lay = natural_layout(4, 5, 3)
    grid = np.arange(20.0).reshape(4, 5)
    v = grid_to_vec(grid, lay)
    assert np.array_equal(vec_to_grid(v, 4, 5), grid)
    with pytest.raises(ValueError):
        grid_to_vec(np.zeros((2, 2)), lay)


def test_stencil_coo_row_structure():
    rows, cols, vals, b = stencil_coo(3, 3, StencilWeights(), DirichletBC(0.0))
    # Centre point (1,1) = index 4 has 5 entries (incl. explicit 0 diag).
    assert int((rows == 4).sum()) == 5
    # Corner point 0 has centre + 2 in-domain neighbours.
    assert int((rows == 0).sum()) == 3


def test_sweep_is_ax_plus_b():
    prob = random_problem(n=9, iterations=1, ncols=7)
    A, b = jacobi_operator(prob, nranks=4)
    x0 = prob.initial_grid()
    y = A.mult(grid_to_vec(x0, A.row_layout))
    ref = jacobi_reference(x0, prob.weights, 1, prob.bc)
    assert np.allclose(vec_to_grid(y, 9, 7) + vec_to_grid(b, 9, 7), ref,
                       rtol=1e-13)


def test_boundary_contributions_in_rhs():
    _, _, _, b = stencil_coo(2, 2, StencilWeights(), DirichletBC(4.0))
    # Every point of a 2x2 grid touches two boundary sides: 2*0.25*4.
    assert np.allclose(b, 2.0)


def test_ghost_indices_match_garray():
    prob = random_problem(n=8, iterations=1, ncols=11)
    A, _ = jacobi_operator(prob, nranks=5)
    for rank in range(5):
        assert np.array_equal(
            ghost_indices(A.row_layout, rank, 11), A.blocks[rank].garray
        )


def test_ghost_window_groups_match_exact_counts():
    """When every rank owns at least one full grid row, the analytic
    window census equals the exact ghost sets."""
    lay = natural_layout(12, 10, 4)  # 30 entries per rank = 3 rows
    for rank in range(4):
        exact = ghost_indices(lay, rank, 10)
        owners, counts = np.unique(lay.owners(exact), return_counts=True)
        want = dict(zip(owners.tolist(), counts.tolist()))
        assert ghost_window_groups(lay, rank, 10) == want


def test_ghost_window_groups_edge_ranks():
    lay = natural_layout(6, 6, 3)
    assert 0 not in ghost_window_groups(lay, 0, 6)  # no self edges
    groups_first = ghost_window_groups(lay, 0, 6)
    assert set(groups_first) == {1}  # only a south window
    groups_last = ghost_window_groups(lay, 2, 6)
    assert set(groups_last) == {1}
