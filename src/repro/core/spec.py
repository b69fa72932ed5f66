"""Shared geometry/schedule algebra of the tiled stencil dataflow.

Both PaRSEC-style implementations (base and communication-avoiding)
are instances of one scheme, parameterized by the step size ``s``:

* every tile has ghost pads: depth ``s`` on sides facing a *remote*
  neighbour, depth 1 elsewhere (the paper's memory layout);
* iterations are grouped in supersteps of ``s``; at iterations
  ``t % s == 0`` remote sides receive an ``s``-deep strip from the
  facing neighbour plus corner blocks from the diagonal neighbours
  (PA1's replicated data);
* at every iteration each tile updates its core *plus* ``u(t) =
  s - 1 - (t % s)`` extra layers into each remote-side pad (the
  redundant work that buys s-fewer messages);
* local sides exchange 1-deep strips every iteration; those strips
  extend ``u(t)`` cells into the remote-side pad range along the
  perpendicular axis, because neighbours along a node edge redundantly
  compute that halo region too.

``s = 1`` degenerates exactly to the base version: pads of depth 1,
one exchange per iteration, no redundant work and no corner blocks.

Everything here is a pure function of (tile coords, side/corner,
phase ``t % s``).  The three primitives :meth:`StencilSpec.local_strip`,
:meth:`~StencilSpec.deep_strip` and :meth:`~StencilSpec.corner_block`
define the rule; :meth:`StencilSpec.exchange_plan` walks them once per
(tile, phase) and is the single source of truth everything else reads:
the graph builder makes its flows from it, the kernels' plans paste and
cut by it, the schedule verifier and the forecast iterate it.

Each node block owns one framed double buffer
(:meth:`StencilSpec.buffers`) of which its tiles' extended arrays are
windows; a tile's pads toward a tile of the same block are that tile's
core, so only strips and corners that cross a block edge are copied.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

from ..distgrid.halo import CORNERS, SIDES, Corner, CornerSpec, Side, StripSpec
from ..distgrid.partition import GridPartition, ProcessGrid
from ..distgrid.tile import TileSpec
from ..stencil.problem import JacobiProblem

#: float64 payloads everywhere.
ITEMSIZE = 8

Slices = tuple[slice, slice]


class Incoming(NamedTuple):
    """One strip or corner block a tile receives before it updates."""

    producer: tuple[int, int]  #: tile (i, j) that cut it, one iteration earlier
    tag: str  #: "sN"/"dN"/"cNW"...: local / deep strip, corner, by the consumer's pad
    nbytes: int
    dest: Slices  #: where it lands in the consumer's extended array
    shape: tuple[int, int]  #: the payload shape ``dest`` accepts
    source: Slices  #: where it was cut from the producer's extended array


class Exchange(NamedTuple):
    """What one tile does at one phase ``t % steps``: receive
    ``incoming`` (N, S, W, E, then NW, NE, SW, SE) and update
    ``update``.  What it cuts for its neighbours is their phase
    ``t + 1`` incoming entries that name it."""

    incoming: tuple[Incoming, ...]
    update: Slices  #: the update region in the extended array


class NodeBuffer(NamedTuple):
    """Where one node block's framed buffer sits in the global grid.

    It is the bounding box of the block's tiles' extended arrays: the
    block, its ghost pads (depth ``steps``, toward another node) and,
    along the grid's edge, the Dirichlet frame.  Every tile's extended array is the window of
    it at ``tile.origin - origin``.
    """

    node: int
    origin: tuple[int, int]  #: global cell of ``buffer[0, 0]``
    shape: tuple[int, int]


@dataclass(frozen=True)
class StencilSpec:
    """The static description one builder/kernel pair shares."""

    problem: JacobiProblem
    partition: GridPartition
    steps: int = 1
    #: this instance's tile table and exchange plan, filled on first
    #: use; never compared, and a ``dataclasses.replace`` starts empty
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.steps < 1:
            raise ValueError("step size must be >= 1")
        # One node has no remote side, hence no deep strip: any step fits.
        min_dim = self.partition.min_tile_dim()
        if self.steps > min_dim and self.partition.pgrid.size > 1:
            raise ValueError(
                f"step size {self.steps} exceeds the smallest tile edge "
                f"{min_dim}; PA1 strips must come from a single tile"
            )

    @classmethod
    def create(
        cls,
        problem: JacobiProblem,
        nodes: int,
        tile: int,
        steps: int = 1,
        pgrid: ProcessGrid | None = None,
    ) -> "StencilSpec":
        pgrid = pgrid or ProcessGrid.square(nodes)
        nrows, ncols = problem.shape
        partition = GridPartition(nrows, ncols, pgrid, tile)
        return cls(problem=problem, partition=partition, steps=steps)

    # -- tiles ------------------------------------------------------------

    def tile(self, i: int, j: int) -> TileSpec:
        tile = self._memo.get((i, j))
        if tile is None:
            tile = self._memo[(i, j)] = _tile_spec(self.partition, self.steps, i, j)
        return tile

    def tiles(self):
        for (i, j) in self.partition.tiles():
            yield self.tile(i, j)

    # -- superstep schedule --------------------------------------------------

    def is_refresh(self, t: int) -> bool:
        """True when iteration ``t`` starts a superstep (remote ghost
        data arrives before its update)."""
        return t % self.steps == 0

    def halo_extension(self, t: int) -> int:
        """u(t): how many pad layers a tile updates into each remote
        side at iteration ``t``."""
        return self.steps - 1 - (t % self.steps)

    def update_region(self, tile: TileSpec, t: int):
        """Tile-relative region updated at iteration ``t``: the core
        plus u(t) layers into every remote-side pad."""
        u = self.halo_extension(t)
        un = u if tile.remote[Side.NORTH] else 0
        us = u if tile.remote[Side.SOUTH] else 0
        uw = u if tile.remote[Side.WEST] else 0
        ue = u if tile.remote[Side.EAST] else 0
        return ((-un, tile.h + us), (-uw, tile.w + ue))

    def region_points(self, tile: TileSpec, t: int) -> tuple[int, int]:
        """(useful core points, redundant halo points) at iteration t."""
        (ra, rb), (ca, cb) = self.update_region(tile, t)
        total = (rb - ra) * (cb - ca)
        core = tile.h * tile.w
        return core, total - core

    # -- strips ----------------------------------------------------------------

    def local_strip(self, consumer: TileSpec, side: Side, t_consumer: int) -> StripSpec | None:
        """The 1-deep strip ``consumer`` pastes into its ``side`` pad at
        iteration ``t_consumer`` (None when that side is remote, has no
        neighbour, or nothing flows this iteration).

        At refresh iterations the strip covers the bare core span (the
        pad's perpendicular extensions are covered by the remote corner
        blocks); otherwise it extends u(t_consumer) cells into each
        *remote* perpendicular pad, data the producer computed
        redundantly at iteration ``t_consumer - 1``.
        """
        if consumer.remote[side] or not consumer.has_neighbor[side]:
            return None
        ext = 0 if self.is_refresh(t_consumer) else self.halo_extension(t_consumer)
        if side.axis == 0:
            perp_lo, perp_hi = Side.WEST, Side.EAST
        else:
            perp_lo, perp_hi = Side.NORTH, Side.SOUTH
        return StripSpec(
            side=side,
            depth=1,
            ext_lo=ext if consumer.remote[perp_lo] else 0,
            ext_hi=ext if consumer.remote[perp_hi] else 0,
        )

    def deep_strip(self, consumer: TileSpec, side: Side) -> StripSpec | None:
        """The s-deep remote strip pasted into ``side`` at refresh
        iterations (None when the side is not remote)."""
        if not consumer.remote[side]:
            return None
        return StripSpec(side=side, depth=self.steps)

    def corner_block(self, consumer: TileSpec, corner: Corner) -> CornerSpec | None:
        """The corner block pasted at refresh iterations (None when not
        needed: base scheme, no diagonal tile, or neither adjacent side
        remote)."""
        if self.steps == 1:
            return None
        row_side, col_side = corner.sides
        if not (consumer.remote[row_side] or consumer.remote[col_side]):
            return None
        if self.partition.diagonal(consumer.i, consumer.j, corner) is None:
            return None
        return CornerSpec(
            corner=corner,
            depth_r=consumer.pad(row_side),
            depth_c=consumer.pad(col_side),
        )

    # -- the exchange plan ----------------------------------------------------------

    def exchange_plan(self) -> dict[tuple[int, int], tuple[Exchange, ...]]:
        """Tile (i, j) -> its :class:`Exchange` at each phase
        ``0..steps-1``; the task of iteration ``t`` (``-1`` for the
        initial load) reads entry ``t % steps``.  Built once per spec
        from the three primitives above, every region validated
        against its tile's pads; immutable, shared by every reader."""
        plan = self._memo.get("exchange")
        if plan is None:
            plan = self._memo["exchange"] = self._build_exchange_plan()
        return plan

    def buffers(self) -> dict[tuple[int, int], NodeBuffer]:
        """Node block (its process-grid coordinates,
        :meth:`GridPartition.block`) -> its :class:`NodeBuffer`."""
        buffers = self._memo.get("buffers")
        if buffers is None:
            spans: dict[tuple[int, int], tuple[int, int, int, int, int]] = {}
            for tile in self.tiles():
                (r, c), (h, w) = tile.origin, tile.ext_shape()
                block = self.partition.block(tile.i, tile.j)
                r0, c0, r1, c1, _ = spans.get(block, (r, c, r + h, c + w, tile.node))
                spans[block] = (min(r0, r), min(c0, c), max(r1, r + h), max(c1, c + w),
                                tile.node)
            buffers = self._memo["buffers"] = {
                block: NodeBuffer(node, (r0, c0), (r1 - r0, c1 - c0))
                for block, (r0, c0, r1, c1, node) in spans.items()
            }
        return buffers

    def geometry(self) -> dict:
        """The complete tile table, exchange plan and node buffers: a
        function of ``(type(self), partition, steps)`` alone (no problem
        data), so a spec of another problem on the same three may adopt
        it."""
        self.exchange_plan()  # walks every tile
        self.buffers()
        return self._memo

    def adopt_geometry(self, geometry: dict) -> None:
        self._memo.update(geometry)

    def _build_exchange_plan(self) -> dict[tuple[int, int], tuple[Exchange, ...]]:
        return {
            tile.key: tuple(
                Exchange(self._incoming(tile, phase),
                         tile.ext_slices(self.update_region(tile, phase)))
                for phase in range(self.steps)
            )
            for tile in self.tiles()
        }

    def _incoming(self, tile: TileSpec, phase: int) -> tuple[Incoming, ...]:
        """The PA1 rule, walked: per side a local strip, else (at a
        refresh) the deep strip; at a refresh also the corner blocks."""
        part, (i, j) = self.partition, tile.key
        refresh = self.is_refresh(phase)
        pieces = []  # (producer tile, tag, strip or corner block)
        for side in SIDES:
            strip, kind = self.local_strip(tile, side, phase), "s"
            if strip is None and refresh:
                strip, kind = self.deep_strip(tile, side), "d"
            if strip is not None:
                pieces.append((part.neighbor(i, j, side), kind + side.name[0], strip))
        if refresh:
            for corner in CORNERS:
                block = self.corner_block(tile, corner)
                if block is not None:
                    pieces.append((part.diagonal(i, j, corner), "c" + corner.name, block))
        entries = []
        for producer_key, tag, piece in pieces:
            producer = self.tile(*producer_key)
            dest = tile.ext_slices(piece.pad_region(tile.h, tile.w))
            shape = (dest[0].stop - dest[0].start, dest[1].stop - dest[1].start)
            source = producer.ext_slices(piece.source_region(producer.h, producer.w))
            nbytes = shape[0] * shape[1] * ITEMSIZE
            entries.append(Incoming(producer_key, tag, nbytes, dest, shape, source))
        return tuple(entries)

    # -- totals (for reports / sanity checks) -----------------------------------

    def counts(self) -> dict[str, int]:
        stats = self.partition.counts()
        stats["steps"] = self.steps
        stats["iterations"] = self.problem.iterations
        return stats


@dataclass(frozen=True)
class CAPlan:
    """What deepening a base build to step size ``steps`` costs (ghost
    memory, on how many tiles) and saves (messages)."""

    steps: int
    boundary_tiles: int
    interior_tiles: int
    extra_ghost_bytes: int
    messages_per_superstep: int
    messages_saved_fraction: float


def ca_plan(base, ca) -> CAPlan:
    """Describe the replication the CA build ``ca`` introduces over the
    base (``steps=1``) build ``base`` of the same problem and
    partition.  Ghost memory comes from the two specs' tile geometry;
    the message counts are the two graphs' message plans, totalled by
    their census -- nothing is re-derived here."""
    spec: StencilSpec = ca.spec
    tiles = list(spec.tiles())
    boundary = sum(tile.is_boundary() for tile in tiles)
    extra_points = 0
    for tile in tiles:
        deep = tile.ext_shape()
        flat = base.spec.tile(tile.i, tile.j).ext_shape()
        extra_points += deep[0] * deep[1] - flat[0] * flat[1]
    ca_messages = ca.graph.census().remote_messages
    base_messages = base.graph.census().remote_messages
    supersteps = -(-spec.problem.iterations // spec.steps)
    return CAPlan(
        steps=spec.steps,
        boundary_tiles=boundary,
        interior_tiles=len(tiles) - boundary,
        extra_ghost_bytes=extra_points * ITEMSIZE,
        messages_per_superstep=ca_messages // supersteps,
        messages_saved_fraction=(
            1.0 - ca_messages / base_messages if base_messages else 0.0
        ),
    )


def _tile_spec(partition: GridPartition, steps: int, i: int, j: int) -> TileSpec:
    """Build the TileSpec for global tile (i, j): pads of depth
    ``steps`` on remote sides, 1 elsewhere."""
    r0, r1 = partition.tile_rows(i)
    c0, c1 = partition.tile_cols(j)
    remote = tuple(partition.is_remote(i, j, s) for s in SIDES)
    has_neighbor = tuple(partition.neighbor(i, j, s) is not None for s in SIDES)
    pads = tuple(steps if remote[s] else 1 for s in SIDES)
    return TileSpec(
        i=i,
        j=j,
        r0=r0,
        r1=r1,
        c0=c0,
        c1=c1,
        node=partition.owner(i, j),
        pads=pads,
        remote=remote,
        has_neighbor=has_neighbor,
    )
