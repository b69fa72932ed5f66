"""StencilSpec: the PA1 halo/schedule algebra."""

import pytest

from repro.core.spec import StencilSpec
from repro.distgrid.halo import CORNERS, Corner, Side
from repro.stencil.problem import JacobiProblem


def make_spec(n=24, nodes=4, tile=4, steps=3, T=9):
    return StencilSpec.create(
        JacobiProblem(n=n, iterations=T), nodes=nodes, tile=tile, steps=steps
    )


def test_step_size_capped_by_tile():
    with pytest.raises(ValueError, match="smallest tile"):
        make_spec(tile=4, steps=5)
    with pytest.raises(ValueError):
        StencilSpec.create(JacobiProblem(n=8, iterations=1), 4, 2, steps=0)


def test_refresh_schedule():
    spec = make_spec(steps=3)
    assert [spec.is_refresh(t) for t in range(6)] == [True, False, False] * 2
    assert [spec.halo_extension(t) for t in range(6)] == [2, 1, 0, 2, 1, 0]


def test_base_spec_never_extends():
    spec = make_spec(steps=1)
    for t in range(4):
        assert spec.halo_extension(t) == 0
        assert spec.is_refresh(t)


def test_tile_pads_deep_only_on_remote_sides():
    spec = make_spec(steps=3)  # 2x2 nodes, 6x6 tiles
    corner = spec.tile(2, 2)  # node (0,0)'s SE tile: S and E remote
    assert corner.remote[Side.SOUTH] and corner.remote[Side.EAST]
    assert corner.pads == (1, 3, 1, 3)
    interior = spec.tile(1, 1)
    assert interior.pads == (1, 1, 1, 1)


def test_update_region_extends_into_remote_pads_only():
    spec = make_spec(steps=3)
    tile = spec.tile(2, 2)  # S and E remote
    (ra, rb), (ca, cb) = spec.update_region(tile, 0)  # u = 2
    assert (ra, rb) == (0, tile.h + 2)
    assert (ca, cb) == (0, tile.w + 2)
    # Phase 2: core only.
    assert spec.update_region(tile, 2) == ((0, tile.h), (0, tile.w))


def test_region_points_redundancy():
    spec = make_spec(steps=3)
    tile = spec.tile(2, 2)  # 4x4 core, S+E remote
    core, redundant = spec.region_points(tile, 0)
    assert core == 16
    assert redundant == 6 * 6 - 16  # extended to 6x6 at u=2
    core, redundant = spec.region_points(tile, 2)
    assert redundant == 0


def test_local_strip_extension_schedule():
    spec = make_spec(steps=3)
    tile = spec.tile(2, 2)  # S, E remote; N, W local
    # Refresh iteration: bare core span.
    s0 = spec.local_strip(tile, Side.NORTH, 0)
    assert (s0.ext_lo, s0.ext_hi) == (0, 0)
    # Phase 1: extends u(1)=1 into the *east* (remote) pad only.
    s1 = spec.local_strip(tile, Side.NORTH, 1)
    assert (s1.ext_lo, s1.ext_hi) == (0, 1)
    assert s1.depth == 1
    # Remote sides never get local strips.
    assert spec.local_strip(tile, Side.SOUTH, 1) is None


def test_local_strip_none_at_physical_boundary():
    spec = make_spec(steps=3)
    nw = spec.tile(0, 0)
    assert spec.local_strip(nw, Side.NORTH, 1) is None
    assert spec.local_strip(nw, Side.WEST, 1) is None


def test_deep_strip_only_remote():
    spec = make_spec(steps=3)
    tile = spec.tile(2, 2)
    deep = spec.deep_strip(tile, Side.SOUTH)
    assert deep.depth == 3 and (deep.ext_lo, deep.ext_hi) == (0, 0)
    assert spec.deep_strip(tile, Side.NORTH) is None


def test_corner_blocks():
    spec = make_spec(steps=3)
    node_corner = spec.tile(2, 2)  # S+E remote
    se = spec.corner_block(node_corner, Corner.SE)
    assert (se.depth_r, se.depth_c) == (3, 3)
    ne = spec.corner_block(node_corner, Corner.NE)  # N local pad 1, E remote
    assert (ne.depth_r, ne.depth_c) == (1, 3)
    sw = spec.corner_block(node_corner, Corner.SW)
    assert (sw.depth_r, sw.depth_c) == (3, 1)
    # NW corner: neither adjacent side remote.
    assert spec.corner_block(node_corner, Corner.NW) is None


def test_corner_blocks_absent_for_base():
    spec = make_spec(steps=1)
    for tile in spec.tiles():
        for corner in CORNERS:
            assert spec.corner_block(tile, corner) is None


def test_corner_block_absent_without_diagonal():
    spec = make_spec(steps=3)
    # Tile (2, 5): S remote, at the global east edge -> SE diagonal
    # does not exist.
    tile = spec.tile(2, 5)
    assert tile.remote[Side.SOUTH]
    assert spec.corner_block(tile, Corner.SE) is None
    assert spec.corner_block(tile, Corner.SW) is not None


def test_counts():
    spec = make_spec()
    stats = spec.counts()
    assert stats["steps"] == 3 and stats["iterations"] == 9
    assert stats["tiles"] == 36


def test_ca_plan_quantifies_replication():
    from repro.core.base_parsec import build_base_graph
    from repro.core.ca_parsec import build_ca_graph
    from repro.core.spec import ca_plan
    from repro.machine.machine import nacl

    problem, machine = JacobiProblem(n=24, iterations=12), nacl(4)
    base = build_base_graph(problem, machine, tile=4, with_kernels=False)

    def plan(steps):
        ca = build_ca_graph(problem, machine, tile=4, steps=steps, with_kernels=False)
        return ca_plan(base, ca)

    p = plan(3)
    assert p.steps == 3
    assert p.boundary_tiles == 20 and p.interior_tiles == 16
    assert p.extra_ghost_bytes > 0
    # 24 remote edges per superstep: 24 deep strips + corner blocks vs
    # 24 * 3 base messages (corners weigh heavily on this tiny config).
    assert p.messages_per_superstep > 24
    assert 0.0 < p.messages_saved_fraction < 0.9
    # Deeper steps amortise the corners away.
    deeper = plan(4)
    assert deeper.messages_per_superstep == p.messages_per_superstep
    assert deeper.messages_saved_fraction > p.messages_saved_fraction
    assert deeper.extra_ghost_bytes > p.extra_ghost_bytes
