"""Build the tiled-stencil task graph (base or CA) and its kernels.

One builder covers both PaRSEC implementations of the paper; the step
size selects the scheme (``steps=1`` = base, ``steps=s`` = CA/PA1).
One dataflow, at two granularities:

* the paper's graph: one task per tile and sweep, keyed ``(name, i, j,
  t)`` with ``t = -1`` for the initialisation tasks that load the
  initial grid and publish the first ghost strips.  It is what
  ``with_kernels=False`` returns, what the census counts and what the
  simulator runs;
* the node-block graph the real executors run: per node and sweep one
  task for the node's boundary tiles (those with a remote side) and,
  where it has any, one for its interior tiles, keyed ``(name, node,
  part, t)`` with ``part`` the tiles' kind.  A part of at least twice
  :data:`~repro.stencil.kernels.SLAB_CELLS` cells is cut into row slabs
  instead, one task each, keyed ``(name, node, part, slab, t)``, so a
  node's workers share its sweep.  Boundary tasks keep the paper's
  priority bias, so remote strips still leave before interior work.
  It is what ``with_kernels=True`` returns; :meth:`BuildResult.
  per_tile` binds the paper's graph to the same kernels instead.

Flows of the paper's graph (all read from :meth:`StencilSpec.exchange_plan
<repro.core.spec.StencilSpec.exchange_plan>`, the single source of
truth):

* ``"tile"`` -- the tile, flowing iteration to iteration on the same
  node (0 bytes);
* ``"sN" / "sS" / "sW" / "sE"`` -- 1-deep local strips named by the
  *consumer's* pad side, exchanged every iteration across local edges;
* ``"dN" / ...`` -- s-deep remote strips, sent every ``s`` iterations
  across node boundaries;
* ``"cNW" / ...`` -- corner blocks for remote refreshes, named by the
  consumer's corner (CA only).

Data.  Every sweep updates in place, inside the build's result grid:
each node block's tiles sweep their cores where they lie, the Dirichlet
values held as four boundary lines.  A tile's pads toward another block
-- its remote strips and corner blocks -- are slots of the *landing
store* (:meth:`~repro.core.spec.StencilSpec.landing`), mapped with the
grid before any fork.  The producer writes a strip straight into its
consumer's slot (slot ``(t // s) % 2`` for the consumer's sweep ``t``),
and the flow carries the token :data:`~repro.runtime.task.READY`; a
flow between two tiles of one block carries it too -- the values
already sit where the consumer reads them, and the flow orders the two.
A block task has one flow per producer task in another block (an
*edge*, tagged ``halo:`` and the consumer's node and part), whose parts
are the strips and corners it orders, named ``tag:i,j`` after the
producing tile: remote messages and bytes are the paper graph's.

In place, the kernel reads a rectangle's four neighbour lines from
wherever the plan says (:func:`_plans`): an array (the grid or a landing
slot), a boundary line, or a *seam* -- a 1-deep copy of an edge line
of a task's update that a neighbour reads one sweep later.  Seams keep
a sweep's tasks independent: a cell another rectangle writes in the
same sweep is never read from its array, but from the seam its writer
saved after the previous sweep or, where the task itself writes it in
another array (a CA tile's core and its halo layers in a slot), from
the copy the task took before it started.
"""

from __future__ import annotations

import mmap
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple

import numpy as np

from ..distgrid.halo import CORNERS, Side
from ..distgrid.tile import TileSpec
from ..machine.machine import MachineSpec
from ..runtime.graph import TaskGraph
from ..runtime.task import READY, Flow, Task, TaskKey
from ..stencil.cost import KernelCostModel
from ..stencil.kernels import FLOP_PER_POINT, SLAB_CELLS
from ..stencil.variable import BAND_CELLS, apply_stencil_lines
from .recipe import Recipe, shared_mapping
from .spec import ITEMSIZE, Slices, StencilSpec

#: Priority bias making node-boundary tasks run before interior ones
#: within the same iteration, so their messages enter the network as
#: early as possible (the communication-hiding heuristic).
BOUNDARY_PRIORITY = 1

#: What the task that produces a tile's final values returns under
#: ``"tile"``: the core is in the build's result grid.
IN_GRID = "in-grid"

Block = tuple[int, int]  #: a node block, by its process-grid coordinates

#: An array a sweep reads or writes: the result grid (``None``) or a
#: landing array, by its index in ``spec.landing()``.
Array = int | None


class _Rect(NamedTuple):
    """A rectangle of one array, in that array's coordinates (a landing
    array's: one slot's)."""

    array: Array
    rows: slice
    cols: slice


class _Piece(NamedTuple):
    """A run of one neighbour line of an update, and where it is read."""

    kind: str  #: "array", "seam", "own" or "dirichlet"
    key: object  #: array: the Array; dirichlet: the Side; else None
    index: object  #: into the array, the block's seam slot or the boundary line


class _Sweep(NamedTuple):
    """One rectangle of an update, with its four neighbour lines."""

    rect: _Rect
    lines: tuple[tuple[_Piece, ...], ...]  #: north, south, west, east


class _Save(NamedTuple):
    """An edge line a task copies into its block's seam store: after its
    update, for a reader one sweep later (a *seam*), or before it, for
    its own rectangles that read what another of them writes (*own*)."""

    array: Array
    cells: tuple  #: a 1-D run of the array
    seam: slice  #: where in the slot it goes


class _Copy(NamedTuple):
    """A strip or corner block a task reads from its landing slot; the
    producing task wrote it there one sweep earlier."""

    producer: tuple  #: key prefix of the producing task
    tag: str  #: its message in the plan
    array: int
    dest: Slices  #: the slot cells it fills
    shape: tuple[int, int]


class _Cut(NamedTuple):
    """An output a task publishes after its update: ``source`` cells of
    the grid written into ``dest`` of its consumer's landing slot, or
    (``source`` None) a flow within the block."""

    tag: str
    source: Slices | None
    array: int | None
    dest: Slices | None


class _Phase(NamedTuple):
    copies: tuple[_Copy, ...]
    own: tuple[_Save, ...]  #: taken before the update, read during it
    update: tuple[_Sweep, ...]  #: the tiles' update regions, joined per array
    saves: tuple[_Save, ...]  #: for the next sweep's readers
    cuts: tuple[_Cut, ...]  #: for the next sweep's consumers
    edges: tuple[tuple, ...]  #: (producer prefix, tag, nbytes, parts) per flow
    outputs: tuple[str, ...]  #: the tags it publishes, ``"tile"`` first


class _Plan(NamedTuple):
    """What the kernels do for one task prefix: its node block, its
    tiles, their cores (one grid rect each, for loading), the joined
    cores (what the last sweep updates, and the checkpoints) and one
    :class:`_Phase` per ``t % steps`` (the initial load saves and cuts
    ``phases[-1]``'s)."""

    block: Block
    tiles: tuple[tuple[int, int], ...]
    cores: tuple[_Rect, ...]
    finals: tuple[_Rect, ...]
    phases: tuple[_Phase, ...]


class StencilKernels:
    """The executable bodies of a stencil build's tasks, at either
    granularity: a task keyed ``prefix + (t,)`` runs ``plans[prefix]``
    at sweep ``t`` -- one tile of the paper's graph, or one node block's
    boundary or interior tiles (or a row slab of them).

    A sweep first copies the lines its own rectangles read from one
    another (a CA tile's core and its halo layers, which lie in two
    arrays), then updates each joined rectangle in place -- its
    neighbour lines read from an array, a boundary line or a seam, as
    :func:`_plans` derived them -- then saves the seams its neighbours
    read next sweep into slot ``t % 2`` of the block's seam store and
    writes the strips its consumers in other blocks read into their
    landing slots.  The last sweep updates the cores only (a CA phase's
    halo extension has no reader after it; the graph's declared flops
    and costs stay, and so does virtual time) and returns
    :data:`IN_GRID`.

    Nothing is copied but 1-deep seams and the strips that cross a block
    edge, and no task allocates anything tile-sized.  In a sweep each
    cell has one writer, and no rectangle reads a cell that a rectangle
    writes in that sweep but through a seam.  Across sweeps, every graph
    orders a task's sweep ``t + 1`` after each sweep-``t`` task that
    reads what it overwrites -- the paper's flows tile by tile, the
    block graph by joining every task of a node to every task of its
    next sweep -- so seam slot ``t % 2`` is rewritten at sweep ``t + 2``,
    after all its readers; and a landing slot, written at the end of a
    superstep, is rewritten two supersteps later, after the strip its
    consumer sent back at the end of the one in between.

    A kernel's inputs are tokens.  The cells a task wrote
    (:meth:`cores_after`) are rewritten one sweep later, so a wrapper
    reads or copies them before it returns (the chaos checkpoint hook
    saves synchronously).  A task runs at most once per build: running
    it again applies one more sweep to the grid it updates in place, so
    a retry or a speculative copy of a task must rebuild from the init
    tasks (chaos recovery starts a fresh build).

    A block's seam store is allocated by the first task of a process
    that touches the block, and goes once :meth:`BuildResult.
    assemble_grid` has seen every final task report.
    """

    def __init__(self, spec: StencilSpec, grid: np.ndarray, store: np.ndarray,
                 plans: dict[tuple, _Plan]) -> None:
        self.spec = spec
        self.grid = grid
        #: the landing store, flat
        self.store = store
        self.plans = plans
        arrays = spec.landing()[1]
        #: landing array -> its two slots, one ``(2, rows, cols)`` view
        self.landing = [store[a.offset:a.offset + 2 * a.shape[0] * a.shape[1]].reshape(
            2, *a.shape) for a in arrays]
        #: array -> the global (row, col) of its [0, 0]
        self.origin = {None: (0, 0), **{k: a.origin for k, a in enumerate(arrays)}}
        #: node block -> the length of one seam slot
        self.seam_cells: dict[Block, int] = {}
        for plan in plans.values():
            for phase in plan.phases:
                for save in phase.own + phase.saves:
                    cells = self.seam_cells.get(plan.block, 0)
                    self.seam_cells[plan.block] = max(cells, save.seam.stop)
        #: node block -> its two seam slots, one ``(2, cells)`` array
        self.seams: dict[Block, np.ndarray] = {}
        #: the four boundary lines, O(perimeter)
        self.boundary = spec.problem.bc.lines(*spec.problem.shape)
        self._lock = threading.Lock()

    def bind(self, graph: TaskGraph) -> TaskGraph:
        return graph.bind(lambda task: self.init_task if task.kind == "init"
                          else self.stencil_task)

    def _array(self, array: Array, t: int) -> np.ndarray:
        """The grid, or the slot of landing array ``array`` that sweep
        ``t`` reads and updates."""
        if array is None:
            return self.grid
        return self.landing[array][(t // self.spec.steps) % 2]

    def _seams(self, block: Block) -> np.ndarray:
        seams = self.seams.get(block)
        if seams is None:
            # Several tasks of one block may start at once: one of them
            # allocates, the others wait for that one.
            with self._lock:
                seams = self.seams.get(block)
                if seams is None:
                    seams = self.seams[block] = np.empty((2, self.seam_cells[block]))
        return seams

    def release(self) -> None:
        """Drop the seam stores (a later run of this build allocates them
        afresh)."""
        self.seams = {}

    # -- initialisation ---------------------------------------------------

    def init_task(self, inputs: Mapping, task: Task) -> dict:
        plan = self.plans[task.key[:-1]]
        problem = self.spec.problem
        for rect in plan.cores:  # tile by tile: no block-sized temporary
            self.grid[rect.rows, rect.cols] = problem.initial_block(rect.rows, rect.cols)
        if problem.iterations == 0:  # the initial values are the final ones
            return {"tile": IN_GRID}
        self._save(plan.block, plan.phases[-1].saves, -1)
        return self._cut(plan.phases[-1], -1)

    # -- one stencil iteration -----------------------------------------------

    def stencil_task(self, inputs: Mapping, task: Task) -> dict:
        t = task.key[-1]
        plan = self.plans[task.key[:-1]]
        phase = plan.phases[t % self.spec.steps]
        for producer, flow, *_ in phase.edges:
            token = inputs[(producer := producer + (t - 1,), flow)]
            if not isinstance(token, str) or token != READY:  # it may come from elsewhere
                raise ValueError(f"task {task.key}: {flow!r} from task {producer} "
                                 f"is {token!r}, not {READY!r}")
        self._save(plan.block, phase.own, t)
        if t + 1 == self.spec.problem.iterations:
            for sweep in phase.update:
                if sweep.rect.array is None:  # the cores: no halo layer is read again
                    self._update(sweep, plan.block, t)
            return {"tile": IN_GRID}
        for sweep in phase.update:
            self._update(sweep, plan.block, t)
        self._save(plan.block, phase.saves, t)
        return self._cut(phase, t)

    def _update(self, sweep: _Sweep, block: Block, t: int) -> None:
        problem, rect = self.spec.problem, sweep.rect
        lines = [self._line(line, block, t) for line in sweep.lines]
        origin = self.origin[rect.array]
        out = apply_stencil_lines(self._array(rect.array, t), problem.weights, rect.rows,
                                  rect.cols, lines, origin)
        if problem.source is not None:
            # Forcing is a global field, so redundantly updated halo
            # cells receive exactly the same contribution their owner
            # applies -- CA equivalence is preserved.  Added in bands,
            # once the rectangle is done: no rectangle-sized temporary.
            rows, cols = _moved((rect.rows, rect.cols), origin)
            band = max(1, BAND_CELLS // out.shape[1])
            for r in range(0, out.shape[0], band):
                out[r : r + band] += problem.source_block(
                    slice(rows.start + r, min(rows.start + r + band, rows.stop)), cols)

    def _line(self, pieces: tuple[_Piece, ...], block: Block, t: int) -> np.ndarray:
        parts = []
        for kind, key, index in pieces:
            if kind == "array":
                parts.append(self._array(key, t)[index])
            elif kind == "seam":  # saved by its writer one sweep earlier
                parts.append(self._seams(block)[(t - 1) % 2, index])
            elif kind == "own":  # taken by this task before its update
                parts.append(self._seams(block)[t % 2, index])
            else:
                parts.append(self.boundary[key][index])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _save(self, block: Block, saves: tuple[_Save, ...], t: int) -> None:
        for array, cells, seam in saves:
            self._seams(block)[t % 2, seam] = self._array(array, t)[cells]

    def _cut(self, phase: _Phase, t: int) -> dict:
        """Write the strips into their slots: each output is ready."""
        slot = ((t + 1) // self.spec.steps) % 2  # what the consumer's next sweep reads
        for _tag, source, array, dest in phase.cuts:
            if source is not None:
                self.landing[array][slot][dest] = self.grid[source]
        return dict.fromkeys(phase.outputs, READY)

    def regions(self, key: TaskKey):
        """The global ``(rows, cols)`` of every joined core rectangle of
        task ``key``: the cells it owns."""
        for rect in self.plans[key[:-1]].finals:
            yield rect.rows, rect.cols

    def cores_after(self, key: TaskKey):
        """``(origin, cells)`` for every joined core rectangle of task
        ``key``: its global top-left cell and a view of its values in
        the grid after that task's sweep, valid until the task's next
        sweep."""
        for rect in self.plans[key[:-1]].finals:
            yield (rect.rows.start, rect.cols.start), self.grid[rect.rows, rect.cols]


def _moved(slices: Slices, by: tuple[int, int]) -> Slices:
    rows, cols = slices
    return (slice(rows.start + by[0], rows.stop + by[0]),
            slice(cols.start + by[1], cols.stop + by[1]))


def _rank(array: Array) -> int:
    return -1 if array is None else array


def _joined(rects: list[_Rect]) -> tuple[_Rect, ...]:
    """Disjoint rectangles with fewer, larger ones in their place:
    neighbours in one array sharing a whole edge are joined, first along
    rows, then along columns -- a node's interior is one rectangle, its
    boundary ring one per side."""
    out: list[_Rect] = []
    for rect in sorted(rects, key=lambda r: (_rank(r.array), r.rows.start, r.cols.start)):
        last = out[-1] if out else None
        if (last is not None and last.array == rect.array and last.rows == rect.rows
                and last.cols.stop == rect.cols.start):
            out[-1] = _Rect(rect.array, rect.rows, slice(last.cols.start, rect.cols.stop))
        else:
            out.append(rect)
    joined: list[_Rect] = []
    for rect in sorted(out, key=lambda r: (_rank(r.array), r.cols.start, r.cols.stop,
                                           r.rows.start)):
        last = joined[-1] if joined else None
        if (last is not None and last.array == rect.array and last.cols == rect.cols
                and last.rows.stop == rect.rows.start):
            joined[-1] = _Rect(rect.array, slice(last.rows.start, rect.rows.stop), rect.cols)
        else:
            joined.append(rect)
    return tuple(joined)


def _intersect(a: Slices, b: Slices) -> Slices | None:
    rows = slice(max(a[0].start, b[0].start), min(a[0].stop, b[0].stop))
    cols = slice(max(a[1].start, b[1].start), min(a[1].stop, b[1].stop))
    return (rows, cols) if rows.start < rows.stop and cols.start < cols.stop else None


def _zones(tile: TileSpec, slot_of: dict) -> list[tuple[Array, Slices]]:
    """Where each cell of ``tile``'s extended array is kept, as global
    rectangles: a remote side's pad in its landing array, a corner block
    in its own, the rest -- the core, the pads toward the same block and
    the corners no corner block fills, which no update reads -- in the
    grid."""
    pn, ps, pw, pe = tile.pads
    rows = {Side.NORTH: (tile.r0 - pn, tile.r0), None: (tile.r0, tile.r1),
            Side.SOUTH: (tile.r1, tile.r1 + ps)}
    cols = {Side.WEST: (tile.c0 - pw, tile.c0), None: (tile.c0, tile.c1),
            Side.EAST: (tile.c1, tile.c1 + pe)}
    zones: list[tuple[Array, Slices]] = []
    for corner in CORNERS:
        row_side, col_side = corner.sides
        box = (slice(*rows[row_side]), slice(*cols[col_side]))
        zones.append((slot_of.get((tile.key, "c" + corner.name)), box))
    for side in Side:
        box = ((slice(*rows[side]), slice(*cols[None])) if side.axis == 0
               else (slice(*rows[None]), slice(*cols[side])))
        zones.append((slot_of.get((tile.key, "d" + side.name[0])), box))
    zones.append((None, (slice(*rows[None]), slice(*cols[None]))))
    return zones


def _zone_of(zones: list[tuple[Array, Slices]], cells: tuple) -> Array:
    """The array that keeps ``cells`` (a rectangle, or a line run: an
    index with one integer) of a tile's extended array."""
    rows, cols = (slice(x, x + 1) if isinstance(x, int) else x for x in cells)
    for array, box in zones:
        if (box[0].start <= rows.start and rows.stop <= box[0].stop
                and box[1].start <= cols.start and cols.stop <= box[1].stop):
            return array
    raise AssertionError(f"cells {cells} are kept nowhere")


class _Entry(NamedTuple):
    """An incoming entry of the exchange plan, in global coordinates."""

    producer: tuple[int, int]  #: the producing tile
    dest: Slices
    slot: int | None  #: from another block: its landing array; else None


def _edges(rect: Slices) -> tuple[int, int, int, int]:
    """The first row, end row, first column and end column of ``rect``:
    its north, south, west and east edges."""
    return rect[0].start, rect[0].stop, rect[1].start, rect[1].stop


def _line_runs(side: int, rect: Slices, readers: list, shape: tuple[int, int],
               prefix_of: dict, zones: dict) -> list[tuple]:
    """The neighbour line of the global rectangle ``rect`` on ``side``
    (N, S, W, E) as runs ``(kind, key, lo, hi, cells)`` along it, ``cells``
    the run's global index (None off the grid).  ``readers``
    are ``(tile, its part in rect, its other parts, its entries)`` of
    the tiles ``rect`` joins: the line cell next to a part's edge cell
    is what that tile's extended array holds there -- the grid's
    boundary (a line outside the ``shape`` grid); a cell the tile itself
    updates in another array this sweep (``"own"``: copied before the
    update, key ``(prefix, array)``); an incoming entry's cell (from
    another block: its landing array; from this block, the producer's
    seam, key ``(prefix, array)``); or else the tile's own value from
    the previous sweep, in the array that keeps it."""
    edge = _edges(rect)[side]
    fixed = edge - 1 if side % 2 == 0 else edge  # north and west lie before the edge
    along = 1 if side < 2 else 0  # a row runs along the columns
    span, cross_axis = rect[along], 1 - along

    def cells(lo: int, hi: int) -> tuple:
        return (fixed, slice(lo, hi)) if along == 1 else (slice(lo, hi), fixed)

    if not 0 <= fixed < shape[cross_axis]:
        return [("dirichlet", side, span.start, span.stop, None)]
    runs = []
    for tile, part, others, entries in readers:
        if _edges(part)[side] != edge:
            continue
        extent = part[along]
        covers = []  # (lo, hi, kind, key), first match wins
        for array, other in others:
            if other[cross_axis].start <= fixed < other[cross_axis].stop:
                covers.append((other[along].start, other[along].stop, "own",
                               (prefix_of[tile], array)))
        for entry in entries:
            if not entry.dest[cross_axis].start <= fixed < entry.dest[cross_axis].stop:
                continue
            lo, hi = entry.dest[along].start, entry.dest[along].stop
            if max(lo, extent.start) >= min(hi, extent.stop):
                continue
            if entry.slot is not None:
                covers.append((lo, hi, "array", entry.slot))
            else:
                source = _zone_of(zones[entry.producer], cells(max(lo, extent.start),
                                                               min(hi, extent.stop)))
                covers.append((lo, hi, "seam", (prefix_of[entry.producer], source)))
        cuts = sorted({extent.start, extent.stop, *(
            x for lo, hi, _, _ in covers for x in (lo, hi) if extent.start < x < extent.stop)})
        for lo, hi in zip(cuts, cuts[1:]):
            kind, key = next(((kind, key) for a, b, kind, key in covers if a <= lo and hi <= b),
                             (None, None))
            if kind is None:
                kind, key = "array", _zone_of(zones[tile], cells(lo, hi))
            runs.append((kind, key, lo, hi))
    runs.sort(key=lambda run: run[2])
    assert runs and runs[0][2] == span.start and runs[-1][3] == span.stop and all(
        a[3] == b[2] for a, b in zip(runs, runs[1:])), (rect, side)
    merged = [runs[0]]
    for kind, key, lo, hi in runs[1:]:
        if merged[-1][:2] == (kind, key):
            merged[-1] = (kind, key, merged[-1][2], hi)
        else:
            merged.append((kind, key, lo, hi))
    return [(kind, key, lo, hi, cells(lo, hi)) for kind, key, lo, hi in merged]


def _plans(spec: StencilSpec, members: dict[tuple, list[tuple[int, int]]],
           per_tile: bool) -> dict[tuple, _Plan]:
    """Read ``spec.exchange_plan()`` for kernels whose task prefixes own
    ``members`` (tile keys, row-major; one block each).  Per tile, every
    output a consumer declared is published, one flow each; per block,
    only the strips and corners that cross a block edge, named after
    their producing tile, on one flow per consumer task (``halo:`` and
    the rest of its prefix).

    A tile's update region is cut by where its cells are kept
    (:func:`_zones`), the parts of a prefix joined per array; each
    rectangle gets its four neighbour lines, cell run by cell run
    (:func:`_line_runs`).  A run of cells another tile of the same
    block writes in that sweep becomes a seam: its writer's task saves
    it after the previous sweep into a slot region of the block's seam
    store allocated here; a run the task itself writes in another array
    is copied there before the update."""
    exchange, steps = spec.exchange_plan(), spec.steps
    shape = spec.problem.shape
    slot_of, arrays = spec.landing()
    origin = {None: (0, 0), **{k: a.origin for k, a in enumerate(arrays)}}

    def local(array: Array, cells: tuple) -> tuple:
        """Global ``cells`` (slices, or a line run's int and slice) as
        an index of ``array``."""
        return tuple(x - at if isinstance(x, int) else slice(x.start - at, x.stop - at)
                     for x, at in zip(cells, origin[array]))

    prefix_of = {tile: prefix for prefix, tiles in members.items() for tile in tiles}
    block_of = {key: spec.partition.block(*key) for key in exchange}
    tiles = {key: spec.tile(*key) for key in exchange}
    zones = {key: _zones(tile, slot_of) for key, tile in tiles.items()}
    parts = {}  # tile -> per phase [(array, global rect)] of its update region
    entries = {}  # tile -> per phase its _Entry tuple
    for key, phases in exchange.items():
        at = tiles[key].origin
        parts[key] = [[(array, box) for array, zone in zones[key]
                       if (box := _intersect(_moved(ex.update, at), zone)) is not None]
                      for ex in phases]
        entries[key] = [tuple(_Entry(e.producer, _moved(e.dest, at),
                                     slot_of.get((key, e.tag))) for e in ex.incoming)
                        for ex in phases]
    copies, cuts = ({prefix: [[] for _ in range(steps)] for prefix in members} for _ in range(2))
    outputs = {prefix: [{"tile": None} for _ in range(steps)] for prefix in members}
    edges = {prefix: [{} for _ in range(steps)] for prefix in members}
    for key, phases in exchange.items():
        for phase, ex in enumerate(phases):
            for entry, incoming in zip(entries[key][phase], ex.incoming):
                tag = (incoming.tag if per_tile else
                       f"{incoming.tag}:{entry.producer[0]},{entry.producer[1]}")
                flow = tag if per_tile else "halo:" + ",".join(map(str, prefix_of[key][1:]))
                out = cuts[prefix_of[entry.producer]][phase - 1]  # cut one sweep earlier
                if entry.slot is None:
                    assert block_of[entry.producer] == block_of[key]
                    if per_tile:
                        out.append(_Cut(tag, None, None, None))
                        outputs[prefix_of[entry.producer]][phase - 1][tag] = None
                    continue
                producer = tiles[entry.producer]
                source = _moved(incoming.source, producer.origin)
                assert _zone_of(zones[entry.producer], source) is None  # from its core
                dest = local(entry.slot, entry.dest)
                copies[prefix_of[key]][phase].append(_Copy(
                    prefix_of[entry.producer], tag, entry.slot, dest, incoming.shape))
                out.append(_Cut(tag, source, entry.slot, dest))
                outputs[prefix_of[entry.producer]][phase - 1][flow] = None
                edges[prefix_of[key]][phase].setdefault((prefix_of[entry.producer], flow), []
                                                        ).append((tag, incoming.nbytes))
    seam_used: dict[Block, int] = {}
    saves = {prefix: [[] for _ in range(steps)] for prefix in members}
    own = {prefix: [[] for _ in range(steps)] for prefix in members}

    def sweeps(prefix, phase):
        """The joined update rectangles of ``prefix`` at ``phase``, grid
        first, with their lines; seams are allocated and their saves
        recorded."""
        block, out = block_of[members[prefix][0]], []
        mine = [(key, array, box) for key in members[prefix] for array, box in parts[key][phase]]
        for rect in _joined([_Rect(array, *box) for _, array, box in mine]):
            whole = (rect.rows, rect.cols)
            readers = [(key, box, [(a, b) for a, b in parts[key][phase] if a != array],
                        entries[key][phase])
                       for key, array, box in mine
                       if array == rect.array and _intersect(box, whole)]
            lines = []
            for side in range(4):
                pieces = []
                for kind, key, lo, hi, cells in _line_runs(side, whole, readers, shape,
                                                           prefix_of, zones):
                    if kind == "dirichlet":
                        pieces.append(_Piece(kind, key, slice(lo, hi)))
                    elif kind == "array":
                        pieces.append(_Piece(kind, key, local(key, cells)))
                    else:  # a seam slot region, and the save that fills it
                        saver, array = key
                        start = seam_used.get(block, 0)
                        seam = seam_used[block] = start + hi - lo
                        save = _Save(array, local(array, cells), slice(start, seam))
                        if kind == "own":
                            own[saver][phase].append(save)
                        else:
                            saves[saver][(phase - 1) % steps].append(save)
                        pieces.append(_Piece(kind, None, slice(start, seam)))
                lines.append(tuple(pieces))
            out.append(_Sweep(_Rect(rect.array, *local(rect.array, whole)), tuple(lines)))
        return tuple(out)

    updates = {prefix: tuple(sweeps(prefix, phase) for phase in range(steps))
               for prefix in members}
    # Built once every seam is allocated: a prefix's saves come from
    # its readers' lines.
    plans = {}
    for prefix, keys in members.items():
        cores = tuple(_Rect(None, *_moved(tiles[key].core_slices(), tiles[key].origin))
                      for key in keys)
        plans[prefix] = _Plan(block_of[keys[0]], tuple(keys), cores, _joined(list(cores)), tuple(
            _Phase(tuple(copies[prefix][phase]), tuple(own[prefix][phase]),
                   updates[prefix][phase], tuple(saves[prefix][phase]),
                   tuple(cuts[prefix][phase]),
                   tuple((producer, flow, sum(nbytes for _, nbytes in parts), tuple(parts))
                         for (producer, flow), parts in edges[prefix][phase].items()),
                   tuple(outputs[prefix][phase]))
            for phase in range(steps)))
    return plans


class _Unit(NamedTuple):
    """What every task of one prefix -- a tile of the paper's graph, or
    a node block -- shares at one phase.  ``flows`` name their producers
    by prefix, one sweep earlier; the priority of sweep ``t`` is
    ``2 * (T - t) + bias``."""

    flows: tuple[tuple, ...]  #: (producer prefix, tag[, nbytes[, parts]])
    cost: float
    flops: float
    redundant_flops: float
    kind: str
    bias: int
    node: int


def _tile_units(spec: StencilSpec, machine: MachineSpec, cost: KernelCostModel,
                name: str, boundary_priority: bool) -> dict[tuple, tuple[_Unit, ...]]:
    """Per tile of the paper's graph (prefix ``(name, i, j)``): its
    :class:`_Unit` at each phase ``0..steps-1``, then its initial load.
    Everything but the producer iteration repeats with period ``steps``,
    so this is computed once per phase, not once per task."""
    plan = spec.exchange_plan()
    units = {}
    for tile in spec.tiles():
        boundary = tile.is_boundary()
        ext_pts = tile.ext_shape()[0] * tile.ext_shape()[1]
        kind = "boundary" if boundary else "interior"
        bias = BOUNDARY_PRIORITY if boundary else 0
        phases = []
        for phase in range(spec.steps):
            # Ghost assembly traffic: only the strips are copies the
            # task body pays for; the tile's own read+write is already
            # in the kernel's bytes/point.
            incoming = plan[tile.key][phase].incoming
            copy_bytes = sum(e.nbytes for e in incoming)
            core_pts, redundant_pts = spec.region_points(tile, phase)
            flows = (((name, tile.i, tile.j), "tile", 0),
                     *(((name, *e.producer), e.tag, e.nbytes) for e in incoming))
            phases.append(_Unit(
                flows,
                cost.task_cost(core_pts, redundant_pts, copy_bytes, ext_pts,
                               machine.node.compute_cores),
                FLOP_PER_POINT * core_pts, FLOP_PER_POINT * redundant_pts,
                kind, bias if boundary_priority else 0, tile.node))
        phases.append(_Unit((), cost.copy_cost(ext_pts * ITEMSIZE), 0.0, 0.0, "init", bias,
                           tile.node))
        units[(name, tile.i, tile.j)] = tuple(phases)
    return units


def _slabs(tiles: list[TileSpec]) -> list[list[tuple[int, int]]]:
    """The keys of ``tiles`` (one part of a node block, row-major) cut
    into runs of whole consecutive tile rows: ``cells // SLAB_CELLS``
    of them, at least one and at most one per tile row."""
    rows = sorted({tile.i for tile in tiles})
    count = min(len(rows), max(1, sum(tile.h * tile.w for tile in tiles) // SLAB_CELLS))
    slab_of = {row: k * count // len(rows) for k, row in enumerate(rows)}
    slabs: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    for tile in tiles:
        slabs[slab_of[tile.i]].append(tile.key)
    return slabs


def _lower(spec: StencilSpec, name: str, units: dict[tuple, tuple[_Unit, ...]]
           ) -> tuple[dict[tuple, tuple[_Unit, ...]], dict[tuple, _Plan]]:
    """The node blocks of the paper's ``units``, with their kernels'
    plans.  A part of a block (its boundary or its interior tiles) is
    one task prefix ``(name, node, part)``, or, cut into row slabs
    (:func:`_slabs`), one ``(name, node, part, slab)`` per slab.  A task
    sums its tiles' costs and flops and keeps their kind and priority;
    it waits on every task of its node one sweep earlier (token flows)
    and on one flow per producer task in another block: an edge, whose
    parts are the strips and corners that task lands in its slots."""
    parts: dict[tuple, list[TileSpec]] = {}
    for tile in sorted(spec.tiles(), key=lambda tile: (tile.node, not tile.is_boundary())):
        part = "boundary" if tile.is_boundary() else "interior"
        parts.setdefault((name, tile.node, part), []).append(tile)
    members: dict[tuple, list[tuple[int, int]]] = {}
    for prefix, tiles in parts.items():
        slabs = _slabs(tiles)
        for k, slab in enumerate(slabs):
            members[prefix if len(slabs) == 1 else prefix + (k,)] = slab
    plans = _plans(spec, members, per_tile=False)
    of_node: dict[int, list[tuple]] = {}
    for prefix in plans:
        of_node.setdefault(prefix[1], []).append(prefix)
    blocks = {}
    for prefix, plan in plans.items():
        tokens = tuple((task, "tile") for task in of_node[prefix[1]])
        per_phase = []
        for k, phase in enumerate((*plan.phases, None)):  # then the initial load
            tiles = [units[(name, i, j)][k] for (i, j) in plan.tiles]
            flows = () if phase is None else tokens + phase.edges
            per_phase.append(_Unit(
                flows, sum(unit.cost for unit in tiles), sum(unit.flops for unit in tiles),
                sum(unit.redundant_flops for unit in tiles), tiles[0].kind,
                max(unit.bias for unit in tiles), prefix[1]))
        blocks[prefix] = tuple(per_phase)
    return blocks, plans


def _unroll(units: dict[tuple, tuple[_Unit, ...]], iterations: int) -> TaskGraph:
    """The finalized, analysed, kernel-less graph of ``units``: every
    prefix's initial load, then sweep by sweep."""
    graph = TaskGraph()
    for t in range(-1, iterations):
        for prefix, phases in units.items():
            steps = len(phases) - 1  # the last is the initial load
            unit = phases[t % steps if t >= 0 else -1]
            graph.add(Task(
                prefix + (t,),
                node=unit.node,
                inputs=tuple(Flow(producer + (t - 1,), *flow) for producer, *flow in unit.flows),
                cost=unit.cost,
                flops=unit.flops,
                redundant_flops=unit.redundant_flops,
                out_nbytes={"tile": 0},
                priority=(iterations - t) * 2 + unit.bias,
                kind=unit.kind,
            ))
    graph.finalize(validate=False)
    graph.census()  # with message_plan(): every bound graph shares them
    graph.total_flops()
    return graph


@dataclass(frozen=True)
class BuildResult:
    """A built graph plus the context needed to run and interpret it.

    A build with kernels has one result ``grid``: float64 over an
    anonymous shared mapping that forked node processes write too and
    that lives exactly as long as the array.  The landing store
    (``kernels.store``) follows the grid in the same mapping.  Running a build twice
    overwrites it; ``run()`` builds per call, as an executor runs once.
    ``blocks`` says the graph runs node blocks (what the builder returns
    with kernels); :meth:`per_tile` is the same build as the paper's
    graph.
    """

    graph: TaskGraph
    spec: StencilSpec
    name: str
    grid: np.ndarray | None = None
    kernels: StencilKernels | None = None
    blocks: bool = False
    template: "Template | None" = field(default=None, repr=False, compare=False)

    def per_tile(self) -> "BuildResult":
        """This build at the paper's granularity -- one task per tile and
        sweep, the graph ``with_kernels=False`` returns -- bound to
        kernels that run each task as a one-tile block: what the
        simulator executes."""
        if not self.blocks:
            return self
        template = self.template
        kernels = StencilKernels(self.spec, self.grid, self.kernels.store,
                                 template.tile_plans(self.spec))
        graph = kernels.bind(template.paper())
        # The recipe describes none of these tasks; it stays with the
        # grid, so that whoever ends the run can close its memfd.
        graph.recipe = self.graph.recipe
        TEMPLATES.put(template)
        return replace(self, graph=graph, kernels=kernels, blocks=False)

    def final_keys(self) -> list[tuple[TaskKey, str]]:
        """(task key, tag) pairs under which the engine's results hold
        the final tasks' :data:`IN_GRID` reports."""
        t_last = self.spec.problem.iterations - 1
        prefixes = (self.kernels.plans if self.kernels is not None
                    else [(self.name, i, j) for (i, j) in self.spec.partition.tiles()])
        return [(prefix + (t_last,), "tile") for prefix in prefixes]

    def assemble_grid(self, results: Mapping) -> np.ndarray:
        """The result grid, once every final task reported its cores in
        it: a cancelled or failed run's grid is half-written and is
        never returned."""
        for key in self.final_keys():
            if results.get(key) != IN_GRID:
                tiles = (self.kernels.plans[key[0][:-1]].tiles if self.kernels is not None
                         else [key[0][1:3]])
                what = ", ".join(map(str, tiles))
                raise RuntimeError(f"tile{'s' if len(tiles) > 1 else ''} {what} did not "
                                   f"report final values (result {key!r}); the grid is "
                                   f"incomplete")
        if self.kernels is not None:
            # Every task has run and nothing reads the seams again (a
            # second run of this build allocates them afresh).
            self.kernels.release()
        return self.grid


class Template:
    """What every build of one shape shares: the spec geometry and the
    paper's tasks per tile and phase (:class:`_Unit`) -- then, each made
    on first use, the paper's graph (finalized, analysed, kernel-less)
    with its kernels' plans, and the node-block graph with its plans.
    A real backend's build never unrolls the paper's graph.  Nothing in
    it is an array, a mapping, a kernel object or problem data, so it
    pins no run's memory; racing builds may each make a part, and any
    of them is right."""

    __slots__ = ("key", "name", "iterations", "geometry", "units", "graph", "plans", "blocks")

    def __init__(self, key: tuple, spec: StencilSpec, machine: MachineSpec,
                 cost: KernelCostModel, name: str, boundary_priority: bool) -> None:
        self.key = key
        self.name = name
        self.iterations = spec.problem.iterations
        self.geometry = spec.geometry()
        self.units = _tile_units(spec, machine, cost, name, boundary_priority)
        self.graph: TaskGraph | None = None
        self.plans: dict[tuple, _Plan] | None = None
        #: (node-block graph, its kernels' plans)
        self.blocks: tuple[TaskGraph, dict[tuple, _Plan]] | None = None

    @property
    def tasks(self) -> int:
        """Tasks retained: what bounds the cache."""
        return sum(len(graph) for graph in (self.graph, self.blocks and self.blocks[0])
                   if graph is not None)

    def paper(self) -> TaskGraph:
        if self.graph is None:
            self.graph = _unroll(self.units, self.iterations)
        return self.graph

    def tile_plans(self, spec: StencilSpec) -> dict[tuple, _Plan]:
        if self.plans is None:
            self.plans = _plans(spec, {(self.name, i, j): [(i, j)]
                                       for (i, j) in spec.partition.tiles()}, per_tile=True)
        return self.plans

    def lowered(self, spec: StencilSpec) -> tuple[TaskGraph, dict[tuple, _Plan]]:
        if self.blocks is None:
            units, plans = _lower(spec, self.name, self.units)
            graph = _unroll(units, self.iterations)
            graph.plan_digest()  # before any bind: every bound graph shares it
            self.blocks = (graph, plans)
        return self.blocks


class _TemplateCache:
    """Process-wide LRU of :class:`Template` objects, bounded by the
    tasks they retain.  The lock covers the table, never a build: two
    threads that miss on one shape both build it (or lower it), and both
    results are right."""

    def __init__(self, max_tasks: int) -> None:
        self.max_tasks = max_tasks
        self._items: OrderedDict = OrderedDict()
        self._new_lock()
        # a child forked while another thread held the lock builds too
        os.register_at_fork(after_in_child=self._new_lock)

    def _new_lock(self) -> None:
        self._lock = threading.Lock()

    def get(self, key):
        with self._lock:
            template = self._items.get(key)
            if template is not None:
                self._items.move_to_end(key)
            return template

    def put(self, template: Template) -> None:
        """Keep ``template`` (again, after it grew a graph)."""
        with self._lock:
            if template.tasks > self.max_tasks:
                # e.g. the n=23040 simulator sweeps: built per run, as before
                self._items.pop(template.key, None)
                return
            self._items[template.key] = template
            while self.retained_tasks() > self.max_tasks:
                self._items.popitem(last=False)

    def retained_tasks(self) -> int:
        return sum(template.tasks for template in self._items.values())

    def clear(self) -> None:
        with self._lock:
            self._items.clear()


#: Tasks the templates may retain in all.  Measured (tracemalloc, the
#: benchmark's shapes): a retained task costs 2.1-2.5 KiB -- 576 tasks
#: 1.4 MiB (`serve_mix`), 1088 tasks 2.4 MiB (`kernel_large`), 4160
#: tasks 8.8 / 8.4 MiB (`halo_base` / `halo_ca`); a bound copy 0.4 KiB a
#: task -- so the templates hold at most ~38 MiB: the four benchmark
#: shapes' paper graphs at once (9 984 tasks), plus the 405 block tasks
#: their backends execute (136 + 130 + 130, and 9 for `serve_mix`'s one
#: block on `threads`).
TEMPLATE_TASKS = 16384
TEMPLATES = _TemplateCache(TEMPLATE_TASKS)


def build_stencil_graph(
    spec: StencilSpec,
    machine: MachineSpec,
    cost: KernelCostModel | None = None,
    name: str = "st",
    with_kernels: bool = True,
    boundary_priority: bool = True,
    memory: mmap.mmap | None = None,
) -> BuildResult:
    """The task graph of ``spec``, bound to this run.  What depends on
    geometry and the cost model only -- the tile table, the exchange
    plan, the landing store's layout, the unrolled graphs with their
    analysis -- is a :class:`Template` made once per shape
    (:data:`TEMPLATES`); per call there is one shared mapping holding
    the result grid and the landing store (``memory``, when
    :func:`~repro.core.recipe.rebuild` passes the one it was sent), one
    :class:`StencilKernels` and a shallow clone of every task pointing
    at it.  ``with_kernels=False``
    binds the paper's graph timing-only (no numpy work, no result grid),
    which is what the benchmark sweeps use; with kernels the graph is
    the node-block one the real executors run, with its :class:`Recipe`."""
    cost = cost or KernelCostModel(machine)
    key = (type(spec), spec.partition, spec.steps, spec.problem.iterations,
           name, boundary_priority, machine, cost)
    template = TEMPLATES.get(key)
    if template is None:
        template = Template(key, spec, machine, cost, name, boundary_priority)
    spec.adopt_geometry(template.geometry)
    if not with_kernels:
        graph = template.paper()
        TEMPLATES.put(template)
        return BuildResult(graph.bind(lambda task: None), spec, name)
    graph, plans = template.lowered(spec)
    TEMPLATES.put(template)
    shape, arrays = spec.problem.shape, spec.landing()[1]
    cells = shape[0] * shape[1]
    landing = sum(2 * a.shape[0] * a.shape[1] for a in arrays)
    nbytes, fd = (cells + landing) * ITEMSIZE, None
    if memory is None:
        memory, fd, closer = shared_mapping(nbytes)
    elif len(memory) != nbytes:
        raise ValueError(f"a {len(memory)}-byte mapping for a {nbytes}-byte build")
    grid = np.ndarray(shape, buffer=memory)
    store = np.ndarray((landing,), buffer=memory, offset=cells * ITEMSIZE)
    kernels = StencilKernels(spec, grid, store, plans)
    bound = kernels.bind(graph)
    if fd is not None:
        bound.recipe = Recipe(key, spec.problem, graph.plan_digest(), fd, kernels, closer)
    return BuildResult(bound, spec, name, grid, kernels, True, template)
