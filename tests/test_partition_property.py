"""Property-based invariants of the domain decomposition."""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.core.dataflow import build_stencil_graph
from repro.core.spec import ITEMSIZE, StencilSpec
from repro.distgrid.halo import SIDES
from repro.distgrid.partition import GridPartition, ProcessGrid, even_split
from repro.machine.machine import nacl
from repro.stencil.problem import JacobiProblem


@st.composite
def partitions(draw):
    prows = draw(st.integers(1, 4))
    pcols = draw(st.integers(1, 4))
    tile = draw(st.integers(1, 7))
    nrows = draw(st.integers(prows, 40))
    ncols = draw(st.integers(pcols, 40))
    return GridPartition(nrows, ncols, ProcessGrid(prows, pcols), tile)


@settings(max_examples=60, deadline=None)
@given(partitions())
def test_tiles_tile_the_grid(p):
    total = 0
    for (i, j) in p.tiles():
        r0, r1 = p.tile_rows(i)
        c0, c1 = p.tile_cols(j)
        assert 0 <= r0 < r1 <= p.nrows
        assert 0 <= c0 < c1 <= p.ncols
        total += (r1 - r0) * (c1 - c0)
    assert total == p.nrows * p.ncols


@settings(max_examples=60, deadline=None)
@given(partitions())
def test_tile_extents_bounded_by_tile_size(p):
    tr, tc = p.tile_shape
    for i in range(tr):
        r0, r1 = p.tile_rows(i)
        assert 1 <= r1 - r0 <= p.tile
    for j in range(tc):
        c0, c1 = p.tile_cols(j)
        assert 1 <= c1 - c0 <= p.tile


@settings(max_examples=60, deadline=None)
@given(partitions())
def test_neighbor_relation_symmetric(p):
    for (i, j) in p.tiles():
        for side in SIDES:
            nb = p.neighbor(i, j, side)
            if nb is not None:
                assert p.neighbor(nb[0], nb[1], side.opposite) == (i, j)
                assert p.is_remote(i, j, side) == p.is_remote(
                    nb[0], nb[1], side.opposite
                )


@settings(max_examples=60, deadline=None)
@given(partitions())
def test_facing_tiles_share_perpendicular_extent(p):
    """The property the halo strips rely on: adjacent tiles have the
    same row range (E/W neighbours) or column range (N/S)."""
    from repro.distgrid.halo import Side

    for (i, j) in p.tiles():
        east = p.neighbor(i, j, Side.EAST)
        if east is not None:
            assert p.tile_rows(i) == p.tile_rows(east[0])
        south = p.neighbor(i, j, Side.SOUTH)
        if south is not None:
            assert p.tile_cols(j) == p.tile_cols(south[1])


@settings(max_examples=60, deadline=None)
@given(partitions())
def test_every_tile_owned_by_exactly_one_node(p):
    for rank in range(p.pgrid.size):
        for (i, j) in p.tiles_of_node(rank):
            assert p.owner(i, j) == rank
    counts = sum(len(p.tiles_of_node(r)) for r in range(p.pgrid.size))
    assert counts == len(list(p.tiles()))


@settings(max_examples=60, deadline=None)
@given(partitions())
def test_remoteness_constant_along_axes(p):
    """All tiles in one tile-column agree on east/west remoteness; all
    tiles in one tile-row agree on north/south remoteness (the
    property that keeps CA strip extensions consistent)."""
    from repro.distgrid.halo import Side

    tr, tc = p.tile_shape
    for j in range(tc):
        flags = {p.is_remote(i, j, Side.EAST) for i in range(tr)}
        assert len(flags) == 1
    for i in range(tr):
        flags = {p.is_remote(i, j, Side.SOUTH) for j in range(tc)}
        assert len(flags) == 1


@st.composite
def specs(draw):
    """Any partition with any step size its tiles allow (up to the
    smallest tile edge)."""
    p = draw(partitions())
    steps = draw(st.integers(1, p.min_tile_dim()))
    problem = JacobiProblem(n=p.nrows, ncols=p.ncols, iterations=1)
    return StencilSpec(problem=problem, partition=p, steps=steps)


def _extent(slices):
    return tuple(s.stop - s.start for s in slices)


def _cells(origin, slices):
    """The global cells a window of an array at ``origin`` covers."""
    rows, cols = slices
    return (origin[0] + rows.start, origin[0] + rows.stop,
            origin[1] + cols.start, origin[1] + cols.stop)


@settings(max_examples=60, deadline=None)
@given(specs())
def test_exchange_plan_sends_exactly_what_is_received(spec):
    """Every incoming entry names a neighbour's cells that are the very
    cells of its own pad, and what the kernels cut is exactly what they
    paste one phase later -- per tile and per node block: the same tag,
    shape and global cells, one paste per copy, nothing else cut, and a
    token wherever producer and consumer share a node buffer."""
    plan = spec.exchange_plan()
    assert set(plan) == set(spec.partition.tiles())
    declared = 0
    for consumer, phases in plan.items():
        tile = spec.tile(*consumer)
        assert len(phases) == spec.steps
        for phase, exchange in enumerate(phases):
            assert exchange.update == tile.ext_slices(spec.update_region(tile, phase))
            tags = [entry.tag for entry in exchange.incoming]
            assert len(set(tags)) == len(tags)
            for entry in exchange.incoming:
                di, dj = entry.producer[0] - consumer[0], entry.producer[1] - consumer[1]
                assert (abs(di), abs(dj)) in ((0, 1), (1, 0), (1, 1))
                producer = spec.tile(*entry.producer)
                assert (_cells(tile.origin, entry.dest)
                        == _cells(producer.origin, entry.source))
                assert _extent(entry.source) == _extent(entry.dest) == entry.shape
                assert entry.nbytes == entry.shape[0] * entry.shape[1] * ITEMSIZE
                declared += 1
    built = build_stencil_graph(spec, nacl(spec.partition.pgrid.size))
    origin = {block: buffer.origin for block, buffer in spec.buffers().items()}
    for kernels in (built.kernels, built.per_tile().kernels):
        sent, tokens = {}, 0
        for prefix, task_plan in kernels.plans.items():
            for phase, step in enumerate(task_plan.phases):
                for tag, block, source in step.cuts:
                    if source is None:
                        tokens += 1
                        continue
                    key = (prefix, (phase + 1) % spec.steps, tag)
                    assert key not in sent  # one tag, one consumer
                    sent[key] = _cells(origin[block], source)
        received = 0
        for prefix, task_plan in kernels.plans.items():
            for phase, step in enumerate(task_plan.phases):
                for paste in step.pastes:
                    cells = _cells(origin[paste.block], paste.dest)
                    assert sent[(paste.producer, phase, paste.tag)] == cells
                    assert (cells[1] - cells[0], cells[3] - cells[2]) == paste.shape
                    received += 1
        assert received == len(sent)
        if kernels is built.kernels:  # within a buffer: the block graph's token edges
            assert tokens == 0
        else:  # the paper's graph publishes every declared flow, by copy or token
            assert received + tokens == declared


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 10_000), st.integers(1, 64))
def test_even_split_properties(total, parts):
    if total < parts:
        return
    sizes = even_split(total, parts)
    assert sum(sizes) == total
    assert len(sizes) == parts
    assert max(sizes) - min(sizes) <= 1
    assert sizes == sorted(sizes, reverse=True)
