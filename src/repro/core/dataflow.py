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

Data.  Every sweep updates in place, over one array per node block.
A grid that is one node block (every ``threads`` run, a one-process
run) sweeps inside the build's result grid, its Dirichlet values held
as four boundary lines.  A block with a remote side owns one private
framed buffer (:class:`~repro.core.spec.NodeBuffer`) whose windows are
its tiles' extended arrays; its last sweep writes the cores into the
result grid out of place.  A flow between two tiles of one array
carries a token -- the values already sit where the consumer reads
them, and the flow orders the two -- and a flow between arrays (every
remote strip and corner) carries the copy the consumer reads.  The
block graph keeps one such flow per copy, named ``tag:i,j`` after the
producing tile, so its remote messages and bytes are the paper graph's,
entry for entry.

In place, the kernel reads a rectangle's four neighbour lines from
wherever the plan says (:func:`_plans`): the array, a boundary line, a
copy received from another block, or a *seam* -- a 1-deep copy of an
edge line of a task's update that a neighbour reads one sweep later.
Seams keep a sweep's tasks independent: a cell another rectangle writes
in the same sweep is never read from the array, but from the seam its
writer saved after the previous sweep, or from a received copy.
"""

from __future__ import annotations

import mmap
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field, replace
from typing import Mapping, NamedTuple

import numpy as np

from ..distgrid.tile import TileSpec
from ..machine.machine import MachineSpec
from ..runtime.graph import TaskGraph
from ..runtime.task import Flow, Task, TaskKey
from ..stencil.cost import KernelCostModel
from ..stencil.kernels import FLOP_PER_POINT, SLAB_CELLS
from ..stencil.variable import BAND_CELLS, apply_stencil_lines
from .spec import ITEMSIZE, Slices, StencilSpec

#: Priority bias making node-boundary tasks run before interior ones
#: within the same iteration, so their messages enter the network as
#: early as possible (the communication-hiding heuristic).
BOUNDARY_PRIORITY = 1

#: What the task that produces a tile's final values returns under
#: ``"tile"``: the core is in the build's result grid.
IN_GRID = "in-grid"

#: What every other same-buffer output carries: the values are in the
#: node buffer the consumer reads.
IN_BUFFER = "in-buffer"

Block = tuple[int, int]  #: a node block, by its process-grid coordinates

#: Node buffers of at least this many bytes ask for transparent huge
#: pages, from the size at which numpy asks for its own arrays.
HUGE_PAGE_BYTES = 1 << 22


class _Rect(NamedTuple):
    """A rectangle of one node buffer."""

    block: Block
    rows: slice
    cols: slice


class _Piece(NamedTuple):
    """A run of one neighbour line of an update, and where it is read."""

    kind: str  #: "array", "seam", "copy" or "dirichlet"
    key: object  #: copy: (producer prefix, tag); dirichlet: the Side; else None
    index: object  #: into the block's array, its seam slot, the copy or the boundary line


class _Sweep(NamedTuple):
    """One rectangle of an update, with its four neighbour lines."""

    rect: _Rect
    lines: tuple[tuple[_Piece, ...], ...]  #: north, south, west, east


class _Save(NamedTuple):
    """An edge line a task saves into its block's seam store after its
    update, for a reader one sweep later."""

    block: Block
    cells: tuple  #: a 1-D run of the block's array
    seam: slice  #: where in the slot it goes


class _Copy(NamedTuple):
    """A copy a task receives from another block before it updates."""

    producer: tuple  #: key prefix of the task that cut it one sweep earlier
    tag: str  #: the producer's output
    block: Block
    dest: Slices  #: the pad cells it holds, in the block's array
    shape: tuple[int, int]
    tile: tuple[int, int]  #: the tile whose pad it fills
    #: (cells of the array, part of the copy): what lies in the tile's
    #: update region and is pasted before the update; the rest is read
    #: from the copy as neighbour lines
    paste: tuple[Slices, Slices] | None


class _Cut(NamedTuple):
    """An output a task publishes after its update: the copy of
    ``source`` for a consumer in another block, or (``source`` None) a
    token for one in the same block."""

    tag: str
    block: Block | None
    source: Slices | None


class _Phase(NamedTuple):
    copies: tuple[_Copy, ...]
    update: tuple[_Sweep, ...]  #: the tiles' update regions, joined
    saves: tuple[_Save, ...]  #: for the next sweep's readers
    cuts: tuple[_Cut, ...]  #: for the next sweep's consumers


class _Plan(NamedTuple):
    """What the kernels do for one task prefix: its tiles, their cores
    (one rect each, for loading), the joined cores (the last sweep's
    update, and the checkpoints), one :class:`_Phase` per ``t % steps``
    (the initial load saves and cuts ``phases[-1]``'s) and, on a block
    with a remote side, the last sweep: the joined cores, read from the
    block's buffer into the result grid."""

    tiles: tuple[tuple[int, int], ...]
    cores: tuple[_Rect, ...]
    finals: tuple[_Rect, ...]
    phases: tuple[_Phase, ...]
    last: tuple[_Sweep, ...]


class StencilKernels:
    """The executable bodies of a stencil build's tasks, at either
    granularity: a task keyed ``prefix + (t,)`` runs ``plans[prefix]``
    at sweep ``t`` -- one tile of the paper's graph, or one node block's
    boundary or interior tiles (or a row slab of them).

    A sweep pastes into its update regions the parts of its received
    copies that lie there, updates each joined rectangle in place --
    its neighbour lines read from the array, a boundary line, a copy or
    a seam, as :func:`_plans` derived them -- then saves the seams its
    neighbours read next sweep into slot ``t % 2`` of the block's seam
    store and cuts the copies its consumers in other blocks read.  The
    last sweep returns :data:`IN_GRID`: on a grid that is one block its
    cores already are in the result grid, and a block with a remote side
    writes them there from its buffer.  It updates the cores only: a CA
    phase's halo extension has no reader after the last sweep (the
    graph's declared flops and costs stay, and so does virtual time).

    Nothing is copied between tiles of one array but 1-deep seams, and
    no task allocates anything tile-sized besides the copies it sends.
    In a sweep each cell has one writer, and no task reads a cell that
    another rectangle writes in that sweep except through a seam or a
    received copy.  Across sweeps, every graph orders a task's sweep
    ``t + 1`` after each sweep-``t`` task that reads what it overwrites
    -- the paper's flows tile by tile, the block graph by joining every
    task of a node to every task of its next sweep -- so seam slot
    ``t % 2`` is rewritten at sweep ``t + 2``, after all its readers.

    A kernel's inputs are tokens and the copies, intact and read-only
    when it returns: a wrapper may keep them.  The cells a task wrote
    (:meth:`cores_after`) are rewritten one sweep later, so a wrapper
    reads or copies them before it returns (the chaos checkpoint hook
    saves synchronously).  A task runs at most once per build: running
    it again applies one more sweep to the array it updates in place,
    so a retry or a speculative copy of a task must rebuild from the
    init tasks (chaos recovery starts a fresh build).

    A block's buffer and seam store are allocated by the first task of
    a process that touches the block (the ``processes`` parent never
    does), and go once :meth:`BuildResult.assemble_grid` has seen every
    final task report, so a kept result pins its grid alone.
    """

    def __init__(self, spec: StencilSpec, grid: np.ndarray, plans: dict[tuple, _Plan]) -> None:
        self.spec = spec
        self.grid = grid
        self.plans = plans
        self.layout = spec.buffers()
        self.in_grid = spec.in_grid()
        #: node block -> global (row, col) of its array's [0, 0]
        self.base = {block: _base(spec, block) for block in self.layout}
        #: node block -> the length of one seam slot
        self.seam_cells: dict[Block, int] = {}
        for plan in plans.values():
            for phase in plan.phases:
                for save in phase.saves:
                    cells = self.seam_cells.get(save.block, 0)
                    self.seam_cells[save.block] = max(cells, save.seam.stop)
        #: node block -> its framed buffer (none for a grid that is one block)
        self.buffers: dict[Block, np.ndarray] = {}
        #: node block -> its two seam slots, one ``(2, cells)`` array
        self.seams: dict[Block, np.ndarray] = {}
        #: a grid that is one block: the four boundary lines, O(perimeter)
        self.boundary = spec.problem.bc.lines(*spec.problem.shape) if self.in_grid else ()
        self._lock = threading.Lock()

    def bind(self, graph: TaskGraph) -> TaskGraph:
        return graph.bind(lambda task: self.init_task if task.kind == "init"
                          else self.stencil_task)

    def _array(self, block: Block) -> np.ndarray:
        if self.in_grid:
            return self.grid
        buffer = self.buffers.get(block)
        if buffer is None:
            # Several tasks of one block may start at once: one of them
            # allocates and frames it, the others wait for that one.
            with self._lock:
                buffer = self.buffers.get(block)
                if buffer is None:
                    buffer = self.buffers[block] = self._allocate(block)
        return buffer

    def _allocate(self, block: Block) -> np.ndarray:
        node_buffer, problem = self.layout[block], self.spec.problem
        # A private anonymous mapping of its own: a node process makes
        # its own, the pages go back to the OS with the array (a freed
        # heap block of ~1 MiB may stay in the process, under glibc's
        # dynamic mmap threshold), and a large one gets huge pages as
        # numpy's large arrays do (a shared mapping would not: 30 ms
        # against 5 ms to first touch 2 x 2050^2 on a 2-core x86 host).
        # No cell but the frame is read before it is written.
        shape = node_buffer.shape
        memory = mmap.mmap(-1, shape[0] * shape[1] * ITEMSIZE, flags=mmap.MAP_PRIVATE)
        if len(memory) >= HUGE_PAGE_BYTES and hasattr(mmap, "MADV_HUGEPAGE"):
            memory.madvise(mmap.MADV_HUGEPAGE)
        buffer = np.ndarray(shape, buffer=memory)
        # Dirichlet data never changes: framed once.
        problem.bc.fill_outside(buffer, node_buffer.origin, *problem.shape)
        return buffer

    def _seams(self, block: Block) -> np.ndarray:
        seams = self.seams.get(block)
        if seams is None:
            with self._lock:
                seams = self.seams.get(block)
                if seams is None:
                    seams = self.seams[block] = np.empty((2, self.seam_cells[block]))
        return seams

    def release(self) -> None:
        """Drop the node buffers and seam stores (a later run of this
        build allocates them afresh)."""
        self.buffers, self.seams = {}, {}

    def _global(self, rect: _Rect) -> Slices:
        r, c = self.base[rect.block]
        return (slice(r + rect.rows.start, r + rect.rows.stop),
                slice(c + rect.cols.start, c + rect.cols.stop))

    # -- initialisation ---------------------------------------------------

    def init_task(self, inputs: Mapping, task: Task) -> dict:
        plan = self.plans[task.key[:-1]]
        problem = self.spec.problem
        if problem.iterations == 0:  # the initial values are the final ones
            for rect in plan.cores:
                rows, cols = self._global(rect)
                self.grid[rows, cols] = problem.initial_block(rows, cols)
            return {"tile": IN_GRID}
        for rect in plan.cores:  # tile by tile: no block-sized temporary
            self._array(rect.block)[rect.rows, rect.cols] = problem.initial_block(
                *self._global(rect))
        self._save(plan.phases[-1].saves, -1)
        return self._cut(plan.phases[-1].cuts)

    # -- one stencil iteration -----------------------------------------------

    def stencil_task(self, inputs: Mapping, task: Task) -> dict:
        t = task.key[-1]
        plan = self.plans[task.key[:-1]]
        phase = plan.phases[t % self.spec.steps]
        last = t + 1 == self.spec.problem.iterations
        to_grid = last and not self.in_grid  # out of place, buffer -> result grid
        for copy in phase.copies:
            values = inputs[(copy.producer + (t - 1,), copy.tag)]
            if values.shape != copy.shape:  # it may come from another process
                raise ValueError(f"tile {copy.tile}, iteration {t}: {copy.tag!r} from task "
                                 f"{copy.producer + (t - 1,)} has shape {values.shape}, "
                                 f"expected {copy.shape}")
            if copy.paste is not None and not to_grid:
                cells, part = copy.paste
                self._array(copy.block)[cells] = values[part]
        if to_grid:
            for sweep in plan.last:
                rows, cols = self._global(sweep.rect)
                self._update(sweep, inputs, t, self.grid[rows, cols])
            return {"tile": IN_GRID}
        for sweep in phase.update:
            self._update(sweep, inputs, t)
        if last:  # a grid that is one block: swept in the result grid
            return {"tile": IN_GRID}
        self._save(phase.saves, t)
        return self._cut(phase.cuts)

    def _update(self, sweep: _Sweep, inputs: Mapping, t: int,
                out: np.ndarray | None = None) -> None:
        problem, rect = self.spec.problem, sweep.rect
        lines = [self._line(line, rect.block, inputs, t) for line in sweep.lines]
        out = apply_stencil_lines(self._array(rect.block), problem.weights, rect.rows,
                                  rect.cols, lines, self.base[rect.block], out)
        if problem.source is not None:
            # Forcing is a global field, so redundantly updated halo
            # cells receive exactly the same contribution their owner
            # applies -- CA equivalence is preserved.  Added in bands,
            # once the rectangle is done: no rectangle-sized temporary.
            rows, cols = self._global(rect)
            band = max(1, BAND_CELLS // out.shape[1])
            for r in range(0, out.shape[0], band):
                out[r : r + band] += problem.source_block(
                    slice(rows.start + r, min(rows.start + r + band, rows.stop)), cols)

    def _line(self, pieces: tuple[_Piece, ...], block: Block, inputs: Mapping,
              t: int) -> np.ndarray:
        parts = []
        for kind, key, index in pieces:
            if kind == "array":
                parts.append(self._array(block)[index])
            elif kind == "seam":  # saved by its writer one sweep earlier
                parts.append(self._seams(block)[(t - 1) % 2, index])
            elif kind == "copy":
                parts.append(inputs[(key[0] + (t - 1,), key[1])][index])
            else:
                parts.append(self.boundary[key][index])
        return parts[0] if len(parts) == 1 else np.concatenate(parts)

    def _save(self, saves: tuple[_Save, ...], t: int) -> None:
        for block, cells, seam in saves:
            self._seams(block)[t % 2, seam] = self._array(block)[cells]

    def _cut(self, cuts: tuple[_Cut, ...]) -> dict:
        outputs: dict = {"tile": IN_BUFFER}
        for tag, block, source in cuts:
            outputs[tag] = IN_BUFFER if source is None else self._array(block)[source].copy()
        return outputs

    def regions(self, key: TaskKey):
        """The global ``(rows, cols)`` of every joined core rectangle of
        task ``key``: the cells it owns."""
        for rect in self.plans[key[:-1]].finals:
            yield self._global(rect)

    def cores_after(self, key: TaskKey):
        """``(origin, cells)`` for every joined core rectangle of task
        ``key``: its global top-left cell and a view of its values
        after that task's sweep (not the last one: those are in the
        result grid), valid until the task's next sweep."""
        for rect in self.plans[key[:-1]].finals:
            rows, cols = self._global(rect)
            yield (rows.start, cols.start), self._array(rect.block)[rect.rows, rect.cols]


def _base(spec: StencilSpec, block: Block) -> tuple[int, int]:
    """The global (row, col) of ``block``'s array at [0, 0]: the
    result grid's for a grid that is one block, else its framed
    buffer's."""
    return (0, 0) if spec.in_grid() else spec.buffers()[block].origin


def _moved(slices: Slices, by: tuple[int, int]) -> Slices:
    rows, cols = slices
    return (slice(rows.start + by[0], rows.stop + by[0]),
            slice(cols.start + by[1], cols.stop + by[1]))


def _joined(rects: list[_Rect]) -> tuple[_Rect, ...]:
    """Disjoint rectangles with fewer, larger ones in their place:
    neighbours sharing a whole edge are joined, first along rows, then
    along columns -- a node's interior is one rectangle, its boundary
    ring one per side."""
    out: list[_Rect] = []
    for rect in sorted(rects, key=lambda r: (r.block, r.rows.start, r.cols.start)):
        last = out[-1] if out else None
        if (last is not None and last.block == rect.block and last.rows == rect.rows
                and last.cols.stop == rect.cols.start):
            out[-1] = _Rect(rect.block, rect.rows, slice(last.cols.start, rect.cols.stop))
        else:
            out.append(rect)
    joined: list[_Rect] = []
    for rect in sorted(out, key=lambda r: (r.block, r.cols.start, r.cols.stop, r.rows.start)):
        last = joined[-1] if joined else None
        if (last is not None and last.block == rect.block and last.cols == rect.cols
                and last.rows.stop == rect.rows.start):
            joined[-1] = _Rect(rect.block, slice(last.rows.start, rect.rows.stop), rect.cols)
        else:
            joined.append(rect)
    return tuple(joined)


def _intersect(a: Slices, b: Slices) -> Slices | None:
    rows = slice(max(a[0].start, b[0].start), min(a[0].stop, b[0].stop))
    cols = slice(max(a[1].start, b[1].start), min(a[1].stop, b[1].stop))
    return (rows, cols) if rows.start < rows.stop and cols.start < cols.stop else None


class _Entry(NamedTuple):
    """An incoming entry of the exchange plan, in array coordinates."""

    producer: tuple[int, int]  #: the producing tile
    tag: str  #: the consumer's flow tag
    dest: Slices
    cross: bool  #: from another block: a copy, not a seam


def _edges(rect: _Rect) -> tuple[int, int, int, int]:
    """The first row, end row, first column and end column of ``rect``:
    its north, south, west and east edges."""
    return rect.rows.start, rect.rows.stop, rect.cols.start, rect.cols.stop


def _line_pieces(side: int, rect: _Rect, readers: list[tuple[_Rect, tuple[_Entry, ...]]],
                 base: tuple[int, int], shape: tuple[int, int], final: bool,
                 prefix_of: dict) -> list[tuple]:
    """The neighbour line of ``rect`` on ``side`` (N, S, W, E) as raw
    runs ``(kind, key, lo, hi, index)`` along it.  ``readers`` are the
    regions ``rect`` joins, each with its tile's incoming entries: the
    line cell next to a region's edge cell is what that tile's extended
    array holds there -- an incoming entry's cell (a copy from another
    block; from this block, the producer's seam, or on the last,
    out-of-place sweep the array), the grid's boundary (a line outside
    the ``shape`` grid; ``base`` is the global cell of the array's
    [0, 0]) or the tile's own value from the previous sweep (the
    array)."""
    edge = _edges(rect)[side]
    fixed = edge - 1 if side % 2 == 0 else edge  # north and west lie before the edge
    along = 1 if side < 2 else 0  # a row runs along the columns
    span, cross_axis = (rect.rows, rect.cols)[along], 1 - along

    def index(lo: int, hi: int, at: int = fixed, by: tuple[int, int] = (0, 0)):
        run = slice(lo - by[along], hi - by[along])
        return (at - by[0], run) if along == 1 else (run, at - by[1])

    if not 0 <= fixed + base[cross_axis] < shape[cross_axis]:
        return [("boundary", side, span.start, span.stop, index(span.start, span.stop))]
    runs = []
    for region, entries in readers:
        if _edges(region)[side] != edge:
            continue
        extent = (region.rows, region.cols)[along]
        cuts = []
        for entry in entries:
            if not entry.dest[cross_axis].start <= fixed < entry.dest[cross_axis].stop:
                continue
            lo = max(extent.start, entry.dest[along].start)
            hi = min(extent.stop, entry.dest[along].stop)
            if lo < hi:
                cuts.append((lo, hi, entry))
        pos = extent.start
        for lo, hi, entry in sorted(cuts, key=lambda c: c[0]):
            if pos < lo:
                runs.append(("array", None, pos, lo, index(pos, lo)))
            origin = (entry.dest[0].start, entry.dest[1].start)
            if entry.cross:
                key = (prefix_of[entry.producer], entry.tag)
                runs.append(("copy", key, lo, hi, index(lo, hi, fixed, origin)))
            elif final:  # nothing writes the buffer in its last sweep
                runs.append(("array", None, lo, hi, index(lo, hi)))
            else:
                runs.append(("seam", prefix_of[entry.producer], lo, hi, index(lo, hi)))
            pos = hi
        if pos < extent.stop:
            runs.append(("array", None, pos, extent.stop, index(pos, extent.stop)))
    runs.sort(key=lambda run: run[2])
    assert runs and runs[0][2] == span.start and runs[-1][3] == span.stop and all(
        a[3] == b[2] for a, b in zip(runs, runs[1:])), (rect, side)
    merged = [runs[0]]
    for run in runs[1:]:
        kind, key, lo, _, _ = merged[-1]
        if run[0] == kind != "copy" and run[1] == key:  # one copy is one run
            merged[-1] = (kind, key, lo, run[3], index(lo, run[3]))
        else:
            merged.append(run)
    return merged


def _plans(spec: StencilSpec, members: dict[tuple, list[tuple[int, int]]],
           per_tile: bool) -> dict[tuple, _Plan]:
    """Read ``spec.exchange_plan()`` for kernels whose task prefixes own
    ``members`` (tile keys, row-major).  Per tile, every output a
    consumer declared is published (a token within a block); per block,
    only the copies, named after their producing tile.

    Each joined update rectangle gets its four neighbour lines, cell run
    by cell run (:func:`_line_pieces`); a run of cells another tile of
    the same block writes in that sweep becomes a seam: its writer's
    task saves it after the previous sweep into a slot region of the
    block's seam store allocated here."""
    exchange, steps = spec.exchange_plan(), spec.steps
    nrows, ncols = spec.problem.shape
    in_grid = spec.in_grid()
    prefix_of = {tile: prefix for prefix, tiles in members.items() for tile in tiles}
    block_of, shift, base = {}, {}, {}
    for tile in spec.tiles():
        block = block_of[tile.key] = spec.partition.block(tile.i, tile.j)
        base[block] = origin = _base(spec, block)
        shift[tile.key] = (tile.origin[0] - origin[0], tile.origin[1] - origin[1])
    cores = {key: _Rect(block_of[key], *_moved(spec.tile(*key).core_slices(), shift[key]))
             for key in exchange}
    regions = {key: [_Rect(block_of[key], *_moved(ex.update, shift[key])) for ex in phases]
               for key, phases in exchange.items()}
    entries = {key: [tuple(_Entry(e.producer, e.tag if per_tile else
                                  f"{e.tag}:{e.producer[0]},{e.producer[1]}",
                                  _moved(e.dest, shift[key]),
                                  block_of[e.producer] != block_of[key])
                           for e in ex.incoming) for ex in phases]
               for key, phases in exchange.items()}
    copies = {prefix: [[] for _ in range(steps)] for prefix in members}
    cuts = {prefix: [[] for _ in range(steps)] for prefix in members}
    for key, phases in exchange.items():
        prefix, block = prefix_of[key], block_of[key]
        for phase, ex in enumerate(phases):
            for entry, incoming in zip(entries[key][phase], ex.incoming):
                source = incoming.producer
                out = cuts[prefix_of[source]][phase - 1]  # cut one sweep earlier
                if not entry.cross:
                    if per_tile:
                        out.append(_Cut(entry.tag, None, None))
                    continue
                inside = _intersect(entry.dest, (regions[key][phase].rows,
                                                 regions[key][phase].cols))
                paste = None if inside is None else (inside, _moved(
                    inside, (-entry.dest[0].start, -entry.dest[1].start)))
                copies[prefix][phase].append(_Copy(
                    prefix_of[source], entry.tag, block, entry.dest, incoming.shape, key,
                    paste))
                out.append(_Cut(entry.tag, block_of[source],
                                _moved(incoming.source, shift[source])))
    seam_used: dict[Block, int] = {}
    saves = {prefix: [[] for _ in range(steps)] for prefix in members}

    def sweeps(tiles, rects, region_of, phase, final):
        """The joined ``rects`` of ``tiles`` with their lines at
        ``phase``; seams are allocated and their saves recorded."""
        out = []
        for rect in rects:
            readers = [(region_of(key), entries[key][phase]) for key in tiles
                       if _intersect((region_of(key).rows, region_of(key).cols),
                                     (rect.rows, rect.cols))]
            lines = []
            for side in range(4):
                pieces = []
                for kind, key, lo, hi, index in _line_pieces(
                        side, rect, readers, base[rect.block], (nrows, ncols), final, prefix_of):
                    if kind == "boundary":
                        # in the frame, or (array coordinates are global
                        # ones then) a run of a boundary line
                        kind, key, index = (("dirichlet", side, slice(lo, hi)) if in_grid
                                            else ("array", None, index))
                    elif kind == "seam":
                        start = seam_used.get(rect.block, 0)
                        seam = slice(start, start + hi - lo)
                        seam_used[rect.block] = seam.stop
                        saves[key][(phase - 1) % steps].append(_Save(rect.block, index, seam))
                        key, index = None, seam
                    pieces.append(_Piece(kind, key, index))
                lines.append(tuple(pieces))
            out.append(_Sweep(rect, tuple(lines)))
        return tuple(out)

    last_phase = (spec.problem.iterations - 1) % steps
    lowered = {}
    for prefix, tiles in members.items():
        finals = _joined([cores[key] for key in tiles])
        updates = tuple(sweeps(tiles, _joined([regions[key][phase] for key in tiles]),
                               lambda key: regions[key][phase], phase, False)
                        for phase in range(steps))
        last = () if in_grid else sweeps(tiles, finals, cores.get, last_phase, True)
        lowered[prefix] = (finals, updates, last)
    # Built once every seam is allocated: a prefix's saves come from
    # its readers' lines.
    return {prefix: _Plan(
        tuple(members[prefix]), tuple(cores[key] for key in members[prefix]), finals, tuple(
            _Phase(tuple(copies[prefix][phase]), updates[phase], tuple(saves[prefix][phase]),
                   tuple(cuts[prefix][phase]))
            for phase in range(steps)), last)
        for prefix, (finals, updates, last) in lowered.items()}


class _Unit(NamedTuple):
    """What every task of one prefix -- a tile of the paper's graph, or
    a node block -- shares at one phase.  ``flows`` name their producers
    by prefix, one sweep earlier; the priority of sweep ``t`` is
    ``2 * (T - t) + bias``."""

    flows: tuple[tuple[tuple, str, int], ...]  #: (producer prefix, tag, nbytes)
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
    and on one copy flow per pasted strip or corner."""
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
        tokens = tuple((task, "tile", 0) for task in of_node[prefix[1]])
        per_phase = []
        for k, phase in enumerate((*plan.phases, None)):  # then the initial load
            tiles = [units[(name, i, j)][k] for (i, j) in plan.tiles]
            flows = () if phase is None else tokens + tuple(
                (copy.producer, copy.tag, copy.shape[0] * copy.shape[1] * ITEMSIZE)
                for copy in phase.copies)
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
                inputs=tuple(Flow(producer + (t - 1,), tag, nbytes)
                             for producer, tag, nbytes in unit.flows),
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
    that lives exactly as long as the array.  Running a build twice
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
        kernels = StencilKernels(self.spec, self.grid, template.tile_plans(self.spec))
        graph = kernels.bind(template.paper())
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
            # Every task has run and nothing reads the buffers again (a
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
            self.blocks = (_unroll(units, self.iterations), plans)
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
) -> BuildResult:
    """The task graph of ``spec``, bound to this run.  What depends on
    geometry and the cost model only -- the tile table, the exchange
    plan, the node buffers, the unrolled graphs with their analysis --
    is a :class:`Template` made once per shape (:data:`TEMPLATES`); per
    call there is a result grid, one :class:`StencilKernels` and a
    shallow clone of every task pointing at it.  ``with_kernels=False``
    binds the paper's graph timing-only (no numpy work, no result grid),
    which is what the benchmark sweeps use; with kernels the graph is
    the node-block one the real executors run."""
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
    shape = spec.problem.shape
    grid = np.ndarray(shape, buffer=mmap.mmap(-1, shape[0] * shape[1] * ITEMSIZE))
    kernels = StencilKernels(spec, grid, plans)
    return BuildResult(kernels.bind(graph), spec, name, grid, kernels, True, template)
