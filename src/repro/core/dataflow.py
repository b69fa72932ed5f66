"""Build the tiled-stencil task graph (base or CA) and its kernels.

One builder covers both PaRSEC implementations of the paper; the step
size selects the scheme (``steps=1`` = base, ``steps=s`` = CA/PA1).
Every task is keyed ``(name, i, j, t)`` with ``t = -1`` for the
initialisation tasks that load the initial grid and publish the first
ghost strips.

Flows (all read from :meth:`StencilSpec.exchange_plan
<repro.core.spec.StencilSpec.exchange_plan>`, the single source of
truth: the builder makes a task's flows from its incoming entries, the
kernels paste by the same entries and publish by their inverse):

* ``"tile"`` -- the tile's extended array, flowing iteration to
  iteration on the same node (0 bytes), :data:`IN_GRID` at the end;
* ``"sN" / "sS" / "sW" / "sE"`` -- 1-deep local strips named by the
  *consumer's* pad side, exchanged every iteration across local edges;
* ``"dN" / ...`` -- s-deep remote strips, sent every ``s`` iterations
  across node boundaries;
* ``"cNW" / ...`` -- corner blocks for remote refreshes, named by the
  consumer's corner (CA only).
"""

from __future__ import annotations

import mmap
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..machine.machine import MachineSpec
from ..runtime.graph import TaskGraph
from ..runtime.task import Flow, Task, TaskKey
from ..stencil.cost import KernelCostModel
from ..stencil.kernels import FLOP_PER_POINT
from ..stencil.variable import apply_stencil_region
from .spec import ITEMSIZE, StencilSpec

#: Priority bias making node-boundary tasks run before interior ones
#: within the same iteration, so their messages enter the network as
#: early as possible (the communication-hiding heuristic).
BOUNDARY_PRIORITY = 1

#: What the task that produces a tile's final values returns under
#: ``"tile"``: the core is in the build's result grid.
IN_GRID = "in-grid"


class _WorkerBuffers(threading.local):
    """What one worker thread keeps between stencil tasks."""

    def __init__(self) -> None:  # runs once in each thread that touches it
        #: ext shape -> the buffer this thread's next update of a tile
        #: of that shape is written to
        self.spare: dict[tuple[int, int], np.ndarray] = {}


class StencilKernels:
    """The executable bodies of the stencil tasks.

    One instance serves every task of a graph (no per-task closures);
    the task key supplies (i, j, t).  Payload contract: ``"tile"``
    carries the tile's full extended array holding iteration-``t+1``
    values on the update region and still-valid older values elsewhere
    -- except from the task that produces a tile's final values (sweep
    ``T-1``; the initial load when ``T == 0``), which writes the core
    into ``grid`` and returns :data:`IN_GRID`.  It updates the core
    only: a CA phase's halo extension has no reader after the last sweep
    (the graph's declared flops and costs stay, and so does virtual time).

    Input contract: when a kernel returns, strips and corners are intact
    and read-only; the task's own ``"tile"`` input has exactly the cells
    named by ``exchange.incoming[*].dest`` overwritten with the declared
    values (ghosts are pasted in place: the flow has one consumer and the
    paste is idempotent, so a re-run reads the same values), every other
    cell unchanged, and is read-only again.

    No stencil task allocates: the update goes into its worker thread's
    *spare* -- the input of the stencil task that thread ran last, dead
    since that kernel returned and still warm in that core's cache --
    and its own input becomes the next spare, so a consumer must not
    keep a reference to an input tile past its return.  A run holds one
    buffer per tile plus one spare per worker; a last-sweep task drops
    its thread's spare and a worker's dies with its thread.
    """

    def __init__(self, spec: StencilSpec, grid: np.ndarray) -> None:
        self.spec = spec
        self.grid = grid
        self.plan = spec.exchange_plan()
        self._local = _WorkerBuffers()

    # -- initialisation ---------------------------------------------------

    def init_task(self, inputs: Mapping, task: Task) -> dict:
        _, i, j, _ = task.key
        spec = self.spec
        tile = spec.tile(i, j)
        block = spec.problem.initial_block(
            slice(tile.r0, tile.r1), slice(tile.c0, tile.c1))
        if spec.problem.iterations == 0:  # the initial values are the final ones
            self.grid[tile.r0 : tile.r1, tile.c0 : tile.c1] = block
            return {"tile": IN_GRID}
        ext = tile.alloc_ext()
        tile.load_core(ext, block)
        spec.problem.bc.fill_exterior(ext, tile, *spec.problem.shape)
        return self._publish(ext, self.plan[(i, j)][-1])

    # -- one stencil iteration -----------------------------------------------

    def stencil_task(self, inputs: Mapping, task: Task) -> dict:
        name, i, j, t = task.key
        problem = self.spec.problem
        exchange = self.plan[(i, j)][t % self.spec.steps]
        ext = inputs[((name, i, j, t - 1), "tile")]

        # The iteration-t tile: the incoming ghosts over the previous one's pads.
        ext.setflags(write=True)  # frozen when it was published
        for (pi, pj), tag, _, dest, shape, _ in exchange.incoming:
            values = inputs[((name, pi, pj, t - 1), tag)]
            if values.shape != shape:  # it may come from another process
                raise ValueError(f"tile {(i, j)}, iteration {t}: {tag!r} from tile "
                                 f"{(pi, pj)} has shape {values.shape}, expected {shape}")
            ext[dest] = values
        ext.setflags(write=False)

        origin = exchange.origin
        spare = self._local.spare
        new = spare.pop(ext.shape, None)
        last = t + 1 == problem.iterations
        if last:  # the core alone into the result grid; the spare is dropped
            tile = self.spec.tile(i, j)
            rs, cs = tile.core_slices()
            out = self.grid[tile.r0 : tile.r1, tile.c0 : tile.c1]
        else:
            # Jacobi update of core + redundant halo extension, written
            # into the spare; around it the pasted values carry over.
            rs, cs = exchange.update
            if new is None or new is ext:  # a thread's first task / the same task re-run
                new = np.empty(ext.shape)
            else:
                new.setflags(write=True)  # frozen when it was published
            new[: rs.start] = ext[: rs.start]
            new[rs.stop :] = ext[rs.stop :]
            new[rs, : cs.start] = ext[rs, : cs.start]
            new[rs, cs.stop :] = ext[rs, cs.stop :]
            out = new[rs, cs]
        apply_stencil_region(ext, problem.weights, rs, cs, origin=origin, out=out)
        if problem.source is not None:
            # Forcing is a global field, so redundantly updated halo
            # cells receive exactly the same contribution their owner
            # applies -- CA equivalence is preserved.
            out += problem.source_block(
                slice(origin[0] + rs.start, origin[0] + rs.stop),
                slice(origin[1] + cs.start, origin[1] + cs.stop),
            )
        if last:
            return {"tile": IN_GRID}
        spare[ext.shape] = ext
        return self._publish(new, exchange)

    def _publish(self, ext: np.ndarray, exchange) -> dict:
        """Outputs of a task that is not a tile's last: ``ext`` itself
        plus a copy of every piece some neighbour pastes next."""
        outputs: dict = {"tile": ext}
        for tag, source in exchange.outgoing:
            outputs[tag] = ext[source].copy()
        return outputs


@dataclass(frozen=True)
class BuildResult:
    """A built graph plus the context needed to run and interpret it.

    A build has one result ``grid`` (None without kernels): float64 over
    an anonymous shared mapping that forked node processes write too and
    that lives exactly as long as the array.  Running a build twice
    overwrites it; ``run()`` builds per call, as an executor runs once.
    """

    graph: TaskGraph
    spec: StencilSpec
    name: str
    grid: np.ndarray | None = None

    def final_keys(self) -> list[tuple[TaskKey, str]]:
        """(task key, tag) pairs under which the engine's results hold
        the final tasks' :data:`IN_GRID` reports."""
        t_last = self.spec.problem.iterations - 1
        return [
            ((self.name, i, j, t_last), "tile")
            for (i, j) in self.spec.partition.tiles()
        ]

    def assemble_grid(self, results: Mapping) -> np.ndarray:
        """The result grid, once every final task reported its core in
        it: a cancelled or failed run's grid is half-written and is
        never returned."""
        for key in self.final_keys():
            if results.get(key) != IN_GRID:
                raise RuntimeError(f"tile {key[0][1:3]} did not report its final "
                                   f"values (result {key!r}); the grid is incomplete")
        return self.grid


class _TemplateCache:
    """Process-wide LRU of templates -- (finalized, analysed, kernel-less
    graph, spec geometry): what every build of one shape shares --
    bounded by the tasks it retains.  A template holds no array,
    mapping, kernel object or problem, so it pins no run's memory.  The
    lock covers the table, never a build: two threads that miss on one
    shape both build it, and both graphs are right."""

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

    def put(self, key, template) -> None:
        if len(template[0]) > self.max_tasks:
            return  # e.g. the n=23040 simulator sweeps: built per run, as before
        with self._lock:
            self._items[key] = template
            while self.retained_tasks() > self.max_tasks:
                self._items.popitem(last=False)

    def retained_tasks(self) -> int:
        return sum(len(graph) for graph, _ in self._items.values())

    def clear(self) -> None:
        self._items.clear()


#: Tasks the templates may retain in all.  Measured (tracemalloc, the
#: benchmark's shapes): a retained task costs 2.1-2.5 KiB -- 576 tasks
#: 1.4 MiB (`serve_mix`), 1088 tasks 2.4 MiB (`kernel_large`), 4160
#: tasks 8.8 / 8.4 MiB (`halo_base` / `halo_ca`); a bound copy 0.4 KiB a
#: task -- so the templates hold at most ~38 MiB: the four benchmark
#: shapes at once (9 984 tasks), or 28 shapes of a 256^2 service.
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
    geometry and the cost model only -- the unrolled graph with its
    analysis, the tile table, the exchange plan -- is a template built
    once per shape (:data:`TEMPLATES`); per call there is a result grid,
    one :class:`StencilKernels` and a shallow clone of every task
    pointing at it.  ``with_kernels=False`` binds a timing-only graph (no
    numpy work, no result grid), which is what the benchmark sweeps use."""
    cost = cost or KernelCostModel(machine)
    key = (type(spec), spec.partition, spec.steps, spec.problem.iterations,
           name, boundary_priority, machine, cost)
    template = TEMPLATES.get(key)
    if template is None:
        template = _build_template(spec, machine, cost, name, boundary_priority)
        TEMPLATES.put(key, template)
    graph, geometry = template
    spec.adopt_geometry(geometry)
    grid = init = stencil = None
    if with_kernels:
        shape = spec.problem.shape
        grid = np.ndarray(shape, buffer=mmap.mmap(-1, shape[0] * shape[1] * ITEMSIZE))
        kernels = StencilKernels(spec, grid)
        init, stencil = kernels.init_task, kernels.stencil_task
    bound = graph.bind(lambda task: init if task.kind == "init" else stencil)
    return BuildResult(bound, spec, name, grid)


def _build_template(spec: StencilSpec, machine: MachineSpec, cost: KernelCostModel,
                    name: str, boundary_priority: bool) -> tuple[TaskGraph, dict]:
    """Unroll the dataflow of ``spec`` into a concrete, kernel-less
    task graph and analyse it."""
    graph = TaskGraph()
    plan = spec.exchange_plan()
    T = spec.problem.iterations

    # Per tile its init task, then per (tile, phase) a template:
    # everything except the producer iteration index repeats with period
    # `steps`, so precompute the flow shapes and costs once per phase
    # instead of once per task.  A flow template is (ni, nj, tag, nbytes).
    templates: dict[tuple[int, int], list] = {}
    for tile in spec.tiles():
        boundary = tile.is_boundary()
        ext_pts = tile.ext_shape()[0] * tile.ext_shape()[1]
        graph.add_task(
            (name, tile.i, tile.j, -1),
            node=tile.node,
            cost=cost.copy_cost(ext_pts * ITEMSIZE),
            out_nbytes={"tile": 0},
            priority=(T + 1) * 2 + (BOUNDARY_PRIORITY if boundary else 0),
            kind="init",
        )
        per_phase = templates[tile.key] = []
        for phase in range(spec.steps):
            # Ghost assembly traffic: only the strips are copies the
            # task body pays for; the tile's own read+write is already
            # in the kernel's bytes/point.
            incoming = plan[tile.key][phase].incoming
            copy_bytes = sum(e.nbytes for e in incoming)
            core_pts, redundant_pts = spec.region_points(tile, phase)
            per_phase.append((
                [(*e.producer, e.tag, e.nbytes) for e in incoming],
                cost.task_cost(core_pts, redundant_pts, copy_bytes, ext_pts,
                               machine.node.compute_cores),
                FLOP_PER_POINT * core_pts,
                FLOP_PER_POINT * redundant_pts,
                "boundary" if boundary else "interior",
                BOUNDARY_PRIORITY if boundary and boundary_priority else 0,
                tile.node,
            ))

    for t in range(T):
        for (i, j), per_phase in templates.items():
            flows, task_cost, flops, red_flops, kind, prio_bias, node = per_phase[t % spec.steps]
            inputs = [Flow((name, i, j, t - 1), "tile", 0)]
            for (ni, nj, tag, nbytes) in flows:
                inputs.append(Flow((name, ni, nj, t - 1), tag, nbytes))
            graph.add(Task(
                (name, i, j, t),
                node=node,
                inputs=tuple(inputs),
                cost=task_cost,
                flops=flops,
                redundant_flops=red_flops,
                out_nbytes={"tile": 0},
                priority=(T - t) * 2 + prio_bias,
                kind=kind,
            ))
    graph.finalize(validate=False)
    graph.census()  # with message_plan(): every bound graph shares them
    graph.total_flops()
    return graph, spec.geometry()
