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
  iteration on the same node (0 bytes: it never moves);
* ``"sN" / "sS" / "sW" / "sE"`` -- 1-deep local strips named by the
  *consumer's* pad side, exchanged every iteration across local edges;
* ``"dN" / ...`` -- s-deep remote strips, sent every ``s`` iterations
  across node boundaries;
* ``"cNW" / ...`` -- corner blocks for remote refreshes, named by the
  consumer's corner (CA only).
"""

from __future__ import annotations

import threading
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


class _WorkerBuffers(threading.local):
    """What one worker thread keeps between stencil tasks."""

    def __init__(self) -> None:  # runs once in each thread that touches it
        #: the flat array tiles are assembled in; grows to the largest
        self.flat = np.empty(0)
        #: ext shape -> the buffer this thread's next update of a tile
        #: of that shape is written to
        self.spare: dict[tuple[int, int], np.ndarray] = {}


class StencilKernels:
    """The executable bodies of the stencil tasks.

    One instance serves every task of a graph (no per-task closures);
    the task key supplies (i, j, t).  Payload contract: ``"tile"``
    carries the tile's full extended array holding iteration-``t+1``
    values on the update region and still-valid older values elsewhere.

    No stencil task allocates.  It assembles its tile in per-thread
    scratch and writes the update into its worker thread's *spare* --
    the input of the stencil task that thread ran last, dead from the
    moment that task's kernel returned (a ``"tile"`` flow has exactly
    one consumer, and every strip or corner a neighbour got is a copy)
    and still warm in that core's cache -- then leaves its own input
    behind as the next spare.  So a consumer must not keep a reference
    to an input tile past its return: the buffer is rewritten by the
    next task.  A run holds one buffer per tile plus one spare per
    worker; the last sweep takes spares without leaving any, and a
    worker's spare dies with its thread, so none outlives a run.
    """

    def __init__(self, spec: StencilSpec) -> None:
        self.spec = spec
        self.plan = spec.exchange_plan()
        self._local = _WorkerBuffers()

    # -- initialisation ---------------------------------------------------

    def init_task(self, inputs: Mapping, task: Task) -> dict:
        _, i, j, _ = task.key
        spec = self.spec
        tile = spec.tile(i, j)
        ext = tile.alloc_ext()
        tile.load_core(ext, spec.problem.initial_block(
            slice(tile.r0, tile.r1), slice(tile.c0, tile.c1)))
        nrows, ncols = spec.problem.shape
        spec.problem.bc.fill_exterior(ext, tile, nrows, ncols)
        return self._publish(ext, self.plan[(i, j)][-1], t=-1)

    # -- one stencil iteration -----------------------------------------------

    def stencil_task(self, inputs: Mapping, task: Task) -> dict:
        name, i, j, t = task.key
        problem = self.spec.problem
        exchange = self.plan[(i, j)][t % self.spec.steps]
        prev = inputs[((name, i, j, t - 1), "tile")]  # read-only, stays so

        # Assemble the iteration-t tile -- previous values plus incoming
        # ghost data -- in this thread's scratch.
        ext = self._assembly_array(prev.shape)
        np.copyto(ext, prev)
        for (pi, pj), tag, _, dest, shape, _ in exchange.incoming:
            values = inputs[((name, pi, pj, t - 1), tag)]
            if values.shape != shape:  # it may come from another process
                raise ValueError(
                    f"tile {(i, j)}, iteration {t}: {tag!r} from tile {(pi, pj)} "
                    f"has shape {values.shape}, expected {shape}"
                )
            ext[dest] = values

        # Jacobi update of core + redundant halo extension, written
        # into the spare; around it the assembled values carry over.
        rs, cs = exchange.update
        origin = exchange.origin
        spare = self._local.spare
        new = spare.pop(prev.shape, None)
        if new is None or new is prev:  # a thread's first task / the same task re-run
            new = np.empty(prev.shape)
        else:
            new.setflags(write=True)  # frozen when it was published
        new[: rs.start] = ext[: rs.start]
        new[rs.stop :] = ext[rs.stop :]
        new[rs, : cs.start] = ext[rs, : cs.start]
        new[rs, cs.stop :] = ext[rs, cs.stop :]
        apply_stencil_region(
            ext, problem.weights, rs, cs, origin=origin, out=new[rs, cs]
        )
        if problem.source is not None:
            # Forcing is a global field, so redundantly updated halo
            # cells receive exactly the same contribution their owner
            # applies -- CA equivalence is preserved.
            new[rs, cs] += problem.source_block(
                slice(origin[0] + rs.start, origin[0] + rs.stop),
                slice(origin[1] + cs.start, origin[1] + cs.stop),
            )
        if t + 1 < problem.iterations:
            spare[prev.shape] = prev
        return self._publish(new, exchange, t)

    # -- helpers -----------------------------------------------------------------

    def _assembly_array(self, shape: tuple[int, int]) -> np.ndarray:
        """This thread's scratch viewed as ``shape``; it grows to the
        largest tile the thread has assembled."""
        cells = shape[0] * shape[1]
        if self._local.flat.size < cells:
            self._local.flat = np.empty(cells)
        return self._local.flat[:cells].reshape(shape)

    def _publish(self, ext: np.ndarray, exchange, t: int) -> dict:
        """Outputs of the task that just produced iteration ``t + 1``
        values on ``ext``: the array itself plus a copy of every piece
        some neighbour pastes at iteration ``t + 1``."""
        outputs: dict = {"tile": ext}
        if t + 1 < self.spec.problem.iterations:
            for tag, source in exchange.outgoing:
                outputs[tag] = ext[source].copy()
        return outputs


@dataclass(frozen=True)
class BuildResult:
    """A built graph plus the context needed to run and interpret it."""

    graph: TaskGraph
    spec: StencilSpec
    name: str

    def final_keys(self) -> list[tuple[TaskKey, str]]:
        """(task key, tag) pairs under which the engine's results hold
        the final extended arrays."""
        t_last = self.spec.problem.iterations - 1
        return [
            ((self.name, i, j, t_last), "tile")
            for (i, j) in self.spec.partition.tiles()
        ]

    def assemble_grid(self, results: Mapping) -> np.ndarray:
        """Collect the final tile cores into the global grid."""
        nrows, ncols = self.spec.problem.shape
        grid = np.empty((nrows, ncols))
        for (key, tag) in self.final_keys():
            _, i, j, _ = key
            tile = self.spec.tile(i, j)
            ext = results[(key, tag)]
            rs, cs = tile.core_slices()
            grid[tile.r0 : tile.r1, tile.c0 : tile.c1] = ext[rs, cs]
        return grid


def build_stencil_graph(
    spec: StencilSpec,
    machine: MachineSpec,
    cost: KernelCostModel | None = None,
    name: str = "st",
    with_kernels: bool = True,
    boundary_priority: bool = True,
) -> BuildResult:
    """Unroll the dataflow of ``spec`` into a concrete task graph.

    ``with_kernels=False`` builds a timing-only graph (no numpy work),
    which is what the benchmark sweeps use.
    """
    cost = cost or KernelCostModel(machine)
    workers = machine.node.compute_cores
    kernels = StencilKernels(spec) if with_kernels else None
    graph = TaskGraph()
    plan = spec.exchange_plan()
    T = spec.problem.iterations

    for tile in spec.tiles():
        i, j = tile.i, tile.j
        ext_points = tile.ext_shape()[0] * tile.ext_shape()[1]
        ext_bytes = ext_points * ITEMSIZE
        boundary = tile.is_boundary()
        kind_init = "init"
        graph.add_task(
            (name, i, j, -1),
            node=tile.node,
            cost=cost.copy_cost(ext_bytes),
            kernel=kernels.init_task if kernels else None,
            out_nbytes={"tile": 0},
            priority=(T + 1) * 2 + (BOUNDARY_PRIORITY if boundary else 0),
            kind=kind_init,
        )

    # Per (tile, phase) templates: everything except the producer
    # iteration index repeats with period `steps`, so precompute the
    # flow shapes and costs once per phase instead of once per task.
    # Each template entry is (ni, nj, tag, nbytes); costs/points follow.
    stencil_kernel = kernels.stencil_task if kernels else None
    templates: dict[tuple[int, int], list] = {}
    for tile in spec.tiles():
        i, j = tile.i, tile.j
        boundary = tile.is_boundary()
        per_phase = []
        for phase in range(spec.steps):
            # Ghost assembly traffic: only the strips are copies the
            # task body pays for; the tile's own read+write is already
            # in the kernel's bytes/point.
            incoming = plan[(i, j)][phase].incoming
            flow_templates = [(*e.producer, e.tag, e.nbytes) for e in incoming]
            copy_bytes = sum(e.nbytes for e in incoming)
            core_pts, redundant_pts = spec.region_points(tile, phase)
            ext_pts = tile.ext_shape()[0] * tile.ext_shape()[1]
            per_phase.append(
                (
                    flow_templates,
                    cost.task_cost(core_pts, redundant_pts, copy_bytes, ext_pts, workers),
                    FLOP_PER_POINT * core_pts,
                    FLOP_PER_POINT * redundant_pts,
                    "boundary" if boundary else "interior",
                    BOUNDARY_PRIORITY if boundary and boundary_priority else 0,
                    tile.node,
                )
            )
        templates[(i, j)] = per_phase

    steps = spec.steps
    for t in range(T):
        phase = t % steps
        prio_base = (T - t) * 2
        for (i, j), per_phase in templates.items():
            flow_templates, task_cost, flops, red_flops, kind, prio_bias, node = per_phase[phase]
            flows = [Flow((name, i, j, t - 1), "tile", 0)]
            for (ni, nj, tag, nbytes) in flow_templates:
                flows.append(Flow((name, ni, nj, t - 1), tag, nbytes))
            graph.add(
                Task(
                    (name, i, j, t),
                    node=node,
                    inputs=tuple(flows),
                    cost=task_cost,
                    flops=flops,
                    redundant_flops=red_flops,
                    kernel=stencil_kernel,
                    out_nbytes={"tile": 0},
                    priority=prio_base + prio_bias,
                    kind=kind,
                )
            )
    return BuildResult(graph=graph.finalize(validate=False), spec=spec, name=name)
