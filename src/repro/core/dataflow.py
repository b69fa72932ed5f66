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

Data.  Each node block owns one framed double buffer
(:class:`~repro.core.spec.NodeBuffer`) and every tile's extended array
is a window of it: sweep ``t`` reads half ``t % 2`` and writes its
update regions into half ``(t + 1) % 2``; the last sweep writes the
cores into the build's result grid.  A flow between two tiles of one
buffer carries a token -- the values already sit where the consumer
reads them, and the flow orders the two -- and a flow between buffers
(every remote strip and corner) carries the copy the consumer pastes
into its pads.  The block graph keeps one such flow per copy, named
``tag:i,j`` after the producing tile, so its remote messages and bytes
are the paper graph's, entry for entry.
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
from ..stencil.variable import BAND_CELLS, apply_stencil_region
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


class _Paste(NamedTuple):
    """A copy a task pastes into a pad before it updates."""

    producer: tuple  #: key prefix of the task that cut it one sweep earlier
    tag: str  #: the producer's output
    block: Block
    dest: Slices  #: where it lands in the buffer
    shape: tuple[int, int]
    tile: tuple[int, int]  #: the tile whose pad it fills


class _Cut(NamedTuple):
    """An output a task publishes after its update: the copy of
    ``source`` for a consumer in another buffer, or (``source`` None) a
    token for one in the same buffer."""

    tag: str
    block: Block | None
    source: Slices | None


class _Phase(NamedTuple):
    pastes: tuple[_Paste, ...]
    update: tuple[_Rect, ...]  #: the tiles' update regions, joined
    cuts: tuple[_Cut, ...]  #: for the next sweep's consumers


class _Plan(NamedTuple):
    """What the kernels do for one task prefix: its tiles, their cores
    (one rect each, for loading), the joined cores (the last sweep's
    update, and the checkpoints) and one :class:`_Phase` per
    ``t % steps`` (the initial load cuts ``phases[-1].cuts``)."""

    tiles: tuple[tuple[int, int], ...]
    cores: tuple[_Rect, ...]
    finals: tuple[_Rect, ...]
    phases: tuple[_Phase, ...]


class StencilKernels:
    """The executable bodies of a stencil build's tasks, at either
    granularity: a task keyed ``prefix + (t,)`` runs ``plans[prefix]``
    at sweep ``t`` -- one tile of the paper's graph, or one node block's
    boundary or interior tiles (or a row slab of them).

    A sweep pastes the task's incoming copies into the pads of half
    ``t % 2``, runs the kernel once per rectangle of its tiles'
    joined update regions from that half into the other, and cuts the
    copies its consumers in other buffers paste next; the last sweep
    writes the joined cores into ``grid`` and returns :data:`IN_GRID`.
    It updates the cores only: a CA phase's halo extension has no reader
    after the last sweep (the graph's declared flops and costs stay, and
    so does virtual time).

    Nothing is copied between tiles of one buffer, and no task allocates
    anything tile-sized besides the copies it sends.  Two halves make
    that safe because every graph orders, per buffer, each sweep's tasks
    after all the previous sweep's tasks that read what they overwrite
    (the paper's flows do it tile by tile; the block graph joins every
    task of a node to every task of its next sweep).  Tasks of one sweep
    write disjoint update regions, and whatever two of them read or
    paste in the same cell is that cell's exact value at that sweep.

    A kernel's inputs are tokens and the copies, intact and read-only
    when it returns: a wrapper may keep them.  The cells a task wrote
    (:meth:`cores_after`) are rewritten two sweeps later, so a wrapper
    reads or copies them before it returns (the chaos checkpoint hook
    saves synchronously).

    A block's buffer is allocated by the first task of a process that
    touches the block (the ``processes`` parent never does).  Of its
    ``T = iterations`` sweeps, the last reads half ``(T - 1) % 2`` and
    writes the result grid, so half ``T % 2`` is dead once the last of
    the block's sweep ``T - 2`` tasks has returned -- one per task
    prefix on the block, at either granularity, whatever order they ran
    in.  That task hands the half's pages back to the OS
    (:meth:`_release`) before it returns, so the block's last sweep
    holds one half and the grid, not two halves and the grid.  The
    buffer itself goes once :meth:`BuildResult.assemble_grid` has seen
    every final task report, so a kept result pins its grid alone.  A
    run of the same build that starts before that (after a cancel)
    counts its readers afresh and reallocates a released block
    (:meth:`_loading`).
    """

    def __init__(self, spec: StencilSpec, grid: np.ndarray, plans: dict[tuple, _Plan]) -> None:
        self.spec = spec
        self.grid = grid
        self.plans = plans
        self.layout = spec.buffers()
        #: node block -> its two halves, one ``(2, h, w)`` array
        self.buffers: dict[Block, np.ndarray] = {}
        #: node block -> the task prefixes on it, each the last reader
        #: of half ``T % 2`` at its sweep ``T - 2``
        self._prefixes: dict[Block, set] = {}
        for prefix, plan in plans.items():
            self._prefixes.setdefault(plan.cores[0].block, set()).add(prefix)
        #: node block -> the prefixes whose sweep ``T - 2`` task has not
        #: returned yet in this run
        self._readers: dict[Block, set] = {}
        self._released: set[Block] = set()
        self._lock = threading.Lock()

    def bind(self, graph: TaskGraph) -> TaskGraph:
        return graph.bind(lambda task: self.init_task if task.kind == "init"
                          else self.stencil_task)

    def _halves(self, block: Block) -> np.ndarray:
        halves = self.buffers.get(block)
        if halves is None:
            # Several tasks of one block may start at once: one of them
            # allocates and frames it, the others wait for that one.
            with self._lock:
                halves = self.buffers.get(block)
                if halves is None:
                    halves = self.buffers[block] = self._allocate(block)
                    self._readers[block] = set(self._prefixes[block])
        return halves

    def _loading(self, block: Block) -> np.ndarray:
        """The buffer an initial load writes.  A block's loads all come
        before its sweep ``T - 2`` (the block graph orders every load
        before the node's first sweep), so a load into a block some of
        whose tasks already retired belongs to a new run of the build:
        the readers are counted afresh, from a fresh buffer if a half
        went back to the OS.  (Should a load of the paper's graph come
        after a retirement of its own run, the count restarts and the
        half is kept: never released early.)"""
        readers = self._readers.get(block)
        if readers is not None and len(readers) < len(self._prefixes[block]):
            with self._lock:
                if block in self._released:
                    self.buffers[block] = self._allocate(block)
                    self._released.discard(block)
                self._readers[block] = set(self._prefixes[block])
        return self._halves(block)

    def _allocate(self, block: Block) -> np.ndarray:
        node_buffer, problem = self.layout[block], self.spec.problem
        # A private anonymous mapping of its own: a node process makes
        # its own, the pages go back to the OS with the array (a freed
        # heap block of ~1 MiB may stay in the process, under glibc's
        # dynamic mmap threshold), and a large one gets huge pages as
        # numpy's large arrays do (a shared mapping would not: 30 ms
        # against 5 ms to first touch 2 x 2050^2 on a 2-core x86 host).
        # No cell but the frame is read before it is written.
        shape = (2, *node_buffer.shape)
        memory = mmap.mmap(-1, shape[0] * shape[1] * shape[2] * ITEMSIZE,
                           flags=mmap.MAP_PRIVATE)
        if len(memory) >= HUGE_PAGE_BYTES and hasattr(mmap, "MADV_HUGEPAGE"):
            memory.madvise(mmap.MADV_HUGEPAGE)
        halves = np.ndarray(shape, buffer=memory)
        for half in halves:  # Dirichlet data never changes: framed once
            problem.bc.fill_outside(half, node_buffer.origin, *problem.shape)
        return halves

    def _retire(self, prefix: tuple, block: Block) -> None:
        """``prefix``'s task at sweep ``T - 2`` is about to return: the
        last of its block to do so releases half ``T % 2``."""
        with self._lock:
            readers = self._readers[block]
            readers.discard(prefix)  # a task run twice retires once
            if readers or block in self._released:
                return
            self._released.add(block)
        self._release(block, self.spec.problem.iterations % 2)

    def _release(self, block: Block, half: int) -> None:
        """Give the pages of ``half`` of ``block``'s buffer back to the
        OS, rounded inward: no page the other half shares is touched.
        The half reads as zeros if anything touched it again."""
        halves = self.buffers[block]
        size, page = halves[0].nbytes, mmap.PAGESIZE
        start = -(-half * size // page) * page
        stop = (half + 1) * size // page * page
        if stop > start and hasattr(mmap, "MADV_DONTNEED"):
            halves.base.madvise(mmap.MADV_DONTNEED, start, stop - start)

    def _global(self, rect: _Rect) -> Slices:
        r, c = self.layout[rect.block].origin
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
            self._loading(rect.block)[0, rect.rows, rect.cols] = problem.initial_block(
                *self._global(rect))
        return self._cut(plan.phases[-1].cuts, 0)

    # -- one stencil iteration -----------------------------------------------

    def stencil_task(self, inputs: Mapping, task: Task) -> dict:
        t = task.key[-1]
        plan = self.plans[task.key[:-1]]
        phase = plan.phases[t % self.spec.steps]
        problem = self.spec.problem
        read = t % 2
        for producer, tag, block, dest, shape, tile in phase.pastes:
            values = inputs[(producer + (t - 1,), tag)]
            if values.shape != shape:  # it may come from another process
                raise ValueError(f"tile {tile}, iteration {t}: {tag!r} from task "
                                 f"{producer + (t - 1,)} has shape {values.shape}, "
                                 f"expected {shape}")
            self._halves(block)[read][dest] = values
        if t + 1 == problem.iterations:  # the cores alone, into the result grid
            for rect in plan.finals:
                rows, cols = self._global(rect)
                self._update(rect, read, self.grid[rows, cols])
            return {"tile": IN_GRID}
        for rect in phase.update:
            self._update(rect, read, self._halves(rect.block)[1 - read, rect.rows, rect.cols])
        outputs = self._cut(phase.cuts, 1 - read)
        if t + 2 == problem.iterations:  # the last read of half ``read``
            self._retire(task.key[:-1], plan.cores[0].block)
        return outputs

    def _update(self, rect: _Rect, read: int, out: np.ndarray) -> None:
        problem = self.spec.problem
        origin = self.layout[rect.block].origin
        apply_stencil_region(self._halves(rect.block)[read], problem.weights,
                             rect.rows, rect.cols, origin=origin, out=out)
        if problem.source is not None:
            # Forcing is a global field, so redundantly updated halo
            # cells receive exactly the same contribution their owner
            # applies -- CA equivalence is preserved.  Added in bands:
            # no rectangle-sized temporary.
            rows, cols = self._global(rect)
            band = max(1, BAND_CELLS // out.shape[1])
            for r in range(0, out.shape[0], band):
                out[r : r + band] += problem.source_block(
                    slice(rows.start + r, min(rows.start + r + band, rows.stop)), cols)

    def _cut(self, cuts: tuple[_Cut, ...], half: int) -> dict:
        outputs: dict = {"tile": IN_BUFFER}
        for tag, block, source in cuts:
            outputs[tag] = (IN_BUFFER if source is None
                            else self._halves(block)[half][source].copy())
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
        result grid)."""
        half = (key[-1] + 1) % 2
        for rect in self.plans[key[:-1]].finals:
            rows, cols = self._global(rect)
            yield (rows.start, cols.start), self._halves(rect.block)[half, rect.rows, rect.cols]


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


def _plans(spec: StencilSpec, members: dict[tuple, list[tuple[int, int]]],
           per_tile: bool) -> dict[tuple, _Plan]:
    """Read ``spec.exchange_plan()`` for kernels whose task prefixes own
    ``members`` (tile keys, row-major).  Per tile, every output a
    consumer declared is published (a token within a buffer); per block,
    only the copies, named after their producing tile."""
    exchange, buffers, steps = spec.exchange_plan(), spec.buffers(), spec.steps
    prefix_of = {tile: prefix for prefix, tiles in members.items() for tile in tiles}
    block_of, shift = {}, {}
    for tile in spec.tiles():
        block = block_of[tile.key] = spec.partition.block(tile.i, tile.j)
        origin = buffers[block].origin
        shift[tile.key] = (tile.origin[0] - origin[0], tile.origin[1] - origin[1])
    pastes = {prefix: [[] for _ in range(steps)] for prefix in members}
    cuts = {prefix: [[] for _ in range(steps)] for prefix in members}
    update = {prefix: [[] for _ in range(steps)] for prefix in members}
    for key, phases in exchange.items():
        prefix, block = prefix_of[key], block_of[key]
        for phase, ex in enumerate(phases):
            update[prefix][phase].append(_Rect(block, *_moved(ex.update, shift[key])))
            for entry in ex.incoming:
                source = entry.producer
                tag = entry.tag if per_tile else f"{entry.tag}:{source[0]},{source[1]}"
                out = cuts[prefix_of[source]][phase - 1]  # cut one sweep earlier
                if block_of[source] == block:
                    if per_tile:
                        out.append(_Cut(tag, None, None))
                    continue
                pastes[prefix][phase].append(_Paste(
                    prefix_of[source], tag, block, _moved(entry.dest, shift[key]),
                    entry.shape, key))
                out.append(_Cut(tag, block_of[source], _moved(entry.source, shift[source])))
    plans = {}
    for prefix, tiles in members.items():
        cores = [_Rect(block_of[key], *_moved(spec.tile(*key).core_slices(), shift[key]))
                 for key in tiles]
        plans[prefix] = _Plan(tuple(tiles), tuple(cores), _joined(cores), tuple(
            _Phase(tuple(pastes[prefix][phase]), _joined(update[prefix][phase]),
                  tuple(cuts[prefix][phase]))
            for phase in range(steps)))
    return plans


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
                (paste.producer, paste.tag, paste.shape[0] * paste.shape[1] * ITEMSIZE)
                for paste in phase.pastes)
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
            self.kernels.buffers = {}
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
