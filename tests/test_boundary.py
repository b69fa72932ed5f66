"""Dirichlet boundary handling."""

import numpy as np
import pytest

from repro.distgrid.boundary import DirichletBC
from repro.distgrid.tile import TileSpec


def corner_tile():
    """Tile at the global NW corner of an 8x8 grid (no N/W neighbours)."""
    return TileSpec(
        i=0, j=0, r0=0, r1=4, c0=0, c1=4, node=0,
        pads=(1, 1, 1, 1),
        remote=(False, False, False, False),
        has_neighbor=(False, True, False, True),
    )


def test_constant_bc_fills_exterior_only():
    t = corner_tile()
    ext = t.alloc_ext(fill=5.0)
    DirichletBC(9.0).fill_exterior(ext, t, nrows=8, ncols=8)
    # North pad (global row -1) and west pad (global col -1) are BC...
    assert np.all(ext[0, :] == 9.0)
    assert np.all(ext[:, 0] == 9.0)
    # ...interior pads (south/east, real neighbours) untouched.
    assert np.all(ext[-1, 1:] == 5.0)
    assert np.all(ext[1:, -1] == 5.0)
    assert np.all(ext[1:-1, 1:-1] == 5.0)


def test_function_bc_values():
    t = corner_tile()
    ext = t.alloc_ext()
    bc = DirichletBC(lambda r, c: 100.0 * r + c)
    bc.fill_exterior(ext, t, nrows=8, ncols=8)
    # Global cell (-1, 2) sits at ext[0, 3].
    assert ext[0, 3] == pytest.approx(-100.0 + 2.0)
    # Corner (-1, -1).
    assert ext[0, 0] == pytest.approx(-101.0)


def test_function_bc_shape_checked():
    bad = DirichletBC(lambda r, c: np.zeros(3))
    with pytest.raises(ValueError):
        bad.evaluate(np.zeros((2, 2)), np.zeros((2, 2)))


def test_frame():
    bc = DirichletBC(2.5)
    framed = bc.frame(3, 4, depth=1)
    assert framed.shape == (5, 6)
    assert np.all(framed[0, :] == 2.5) and np.all(framed[:, 0] == 2.5)
    assert np.all(framed[1:-1, 1:-1] == 0.0)


def test_frame_function_matches_coordinates():
    bc = DirichletBC(lambda r, c: r * 10.0 + c)
    framed = bc.frame(2, 2, depth=1)
    assert framed[0, 0] == pytest.approx(-11.0)  # (-1, -1)
    assert framed[3, 3] == pytest.approx(2 * 10 + 2)  # (2, 2)


# -- O(perimeter) evaluation equals the full-meshgrid one -----------------


def frame_by_meshgrid(bc, nrows, ncols, depth):
    """The frame, the O(area) way: every cell's coordinates, then a mask."""
    framed = np.zeros((nrows + 2 * depth, ncols + 2 * depth))
    gr, gc = np.meshgrid(np.arange(-depth, nrows + depth),
                         np.arange(-depth, ncols + depth), indexing="ij")
    outside = (gr < 0) | (gr >= nrows) | (gc < 0) | (gc >= ncols)
    framed[outside] = bc.evaluate(gr[outside], gc[outside])
    return framed


def fill_exterior_by_mask(bc, ext, tile, nrows, ncols):
    gr, gc = tile.global_coords()
    outside = (gr < 0) | (gr >= nrows) | (gc < 0) | (gc >= ncols)
    if outside.any():
        ext[outside] = bc.evaluate(gr[outside], gc[outside])


WAVY_BC = DirichletBC(lambda r, c: np.sin(0.3 * r) * 7.0 - np.cos(0.11 * c) + r * c)


@pytest.mark.parametrize("nrows,ncols,depth", [
    (1, 1, 1), (3, 7, 1), (9, 2, 3), (5, 5, 4), (2, 11, 2),
])
def test_frame_equals_full_meshgrid_frame(nrows, ncols, depth):
    for bc in (WAVY_BC, DirichletBC(1.75)):
        got = bc.frame(nrows, ncols, depth=depth)
        assert got.tobytes() == frame_by_meshgrid(bc, nrows, ncols, depth).tobytes()


@pytest.mark.parametrize("nrows,ncols,nodes,tile,steps", [
    (12, 12, 4, 3, 1),     # base: 1-deep pads everywhere
    (24, 36, 4, 6, 4),     # CA: 4-deep pads on node boundaries, corners
    (10, 30, 2, 5, 3),     # non-square, one tile row per node
    (7, 7, 1, 7, 1),       # a single tile touching all four edges
])
def test_fill_exterior_equals_masked_fill_on_every_tile(nrows, ncols, nodes, tile, steps):
    from repro.core.spec import StencilSpec
    from repro.stencil.problem import JacobiProblem

    problem = JacobiProblem(n=nrows, ncols=ncols, iterations=1, bc=WAVY_BC)
    spec = StencilSpec.create(problem, nodes=nodes, tile=tile, steps=steps)
    edge_tiles = 0
    for t in spec.tiles():
        got = t.alloc_ext(fill=-5.0)
        want = got.copy()
        WAVY_BC.fill_exterior(got, t, nrows, ncols)
        fill_exterior_by_mask(WAVY_BC, want, t, nrows, ncols)
        assert got.tobytes() == want.tobytes()
        edge_tiles += bool((want != -5.0).any())
    assert edge_tiles  # the comparison saw boundary cells
