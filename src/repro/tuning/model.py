"""Model-guided candidate ranking: the cheap first pass of the tuner.

Before any run -- simulated or measured -- every candidate gets an
analytic time estimate assembled from the pieces the repository already
calibrates against the paper: the roofline kernel-cost model
(:mod:`repro.stencil.cost`, Fig. 6's plateau) and the NetPIPE-shaped
network curve (:mod:`repro.machine.network`, Fig. 5).  The estimate
reproduces the three effects that shape Figs. 6 and 9:

* **per-task overhead** drowns tiny tiles (many tasks, fixed cost each);
* **wave quantisation / starvation** punishes oversized tiles (fewer
  tiles than workers leaves cores idle -- the right-hand cliff of
  Fig. 6);
* **message amortisation vs redundant work** trades the CA step ``s``:
  fewer, fatter messages against the replicated halo FLOPs.

The model is deliberately a ranking device, not a clock: successive
halving (:mod:`repro.tuning.search`) refines the shortlist with actual
runs.  Its job is only to put the paper's operating points near the
top of the list so the run budget is spent where it matters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from ..core.config import applies
from ..distgrid.partition import ProcessGrid, even_split
from ..machine.machine import MachineSpec
from ..stencil.cost import KernelCostModel
from ..stencil.problem import JacobiProblem
from .space import Candidate


@dataclass(frozen=True)
class Prediction:
    """One candidate's modelled performance."""

    candidate: Candidate
    time_s: float
    gflops: float
    compute_s: float
    comm_s: float
    messages_per_block: int

    def as_record(self) -> dict:
        return {
            "tile": self.candidate.tile,
            "steps": self.candidate.steps,
            "policy": self.candidate.policy,
            "overlap": self.candidate.overlap,
            "boundary_priority": self.candidate.boundary_priority,
            "predicted_s": self.time_s,
            "predicted_gflops": self.gflops,
        }


def predict(
    problem: JacobiProblem,
    machine: MachineSpec,
    impl: str,
    candidate: Candidate,
    ratio: float = 1.0,
) -> Prediction:
    """Analytic run-time estimate for one candidate.

    Models the busiest (interior) node: per ``s``-iteration block, the
    compute side is ``ceil(tiles/workers)`` waves of one task's cost
    (kernel + ghost copies + runtime overhead), the communication side
    is the comm thread serialising one ``s``-deep strip message per
    remote-facing boundary tile.  Overlap takes the max of the two
    sides, no overlap their sum -- iterated over ``ceil(T/s)`` blocks.
    ``ratio`` is the paper's kernel-adjustment knob (section VI-D):
    shrinking it shifts the balance toward communication, which is
    exactly when larger CA steps start paying off.
    """
    if not applies("tile", impl):
        raise ValueError(
            f"the tuning model covers the PaRSEC implementations, not {impl!r}"
        )
    tile = candidate.tile
    pg = ProcessGrid.square(machine.nodes)
    block_r = max(even_split(problem.shape[0], pg.rows))
    block_c = max(even_split(problem.shape[1], pg.cols))
    tiles_r = math.ceil(block_r / tile)
    tiles_c = math.ceil(block_c / tile)
    ntiles = tiles_r * tiles_c
    node = machine.node
    workers = node.compute_cores if candidate.overlap else node.cores

    iterations = max(1, problem.iterations)
    s = candidate.steps if applies("steps", impl) else 1
    s_eff = min(s, iterations)

    cost = KernelCostModel(machine, ratio=ratio)
    # One task advances its tile s_eff sweeps; sweep k needs the halo
    # frame of width (s_eff - k), so the replicated work is the sum of
    # shrinking frames around the tile (interior-tile upper bound).
    core_points = tile * tile * s_eff
    redundant_points = sum(
        (tile + 2 * k) ** 2 - tile * tile for k in range(1, s_eff)
    )
    copy_bytes = 8.0 * ((tile + 2 * s_eff) ** 2 - tile * tile)
    task_s = (
        node.task_overhead
        + cost.update_cost(core_points, redundant_points, tile * tile, workers)
        + cost.copy_cost(copy_bytes)
    )
    waves = math.ceil(ntiles / workers)
    compute_s = waves * task_s

    # Remote sides of the busiest node: 2 per partitioned dimension
    # (1 when only two blocks exist along it, 0 when unsplit).
    remote_r = min(2, pg.rows - 1)
    remote_c = min(2, pg.cols - 1)
    messages = tiles_c * remote_r + tiles_r * remote_c
    strip_bytes = 8.0 * tile * s_eff
    comm_s = messages * machine.network.message_time(strip_bytes)

    block_s = max(compute_s, comm_s) if candidate.overlap else compute_s + comm_s
    nblocks = math.ceil(iterations / s_eff)
    total_s = nblocks * block_s
    gflops = problem.total_flops / total_s / 1e9 if total_s > 0 else 0.0
    return Prediction(
        candidate=candidate,
        time_s=total_s,
        gflops=gflops,
        compute_s=nblocks * compute_s,
        comm_s=nblocks * comm_s,
        messages_per_block=messages,
    )


def rank(
    problem: JacobiProblem,
    machine: MachineSpec,
    impl: str,
    candidates: Sequence[Candidate],
    ratio: float = 1.0,
) -> list[Prediction]:
    """All candidates, fastest-predicted first (candidate order breaks
    ties, so the ranking is deterministic)."""
    preds = [predict(problem, machine, impl, c, ratio=ratio) for c in candidates]
    preds.sort(key=lambda p: (p.time_s, p.candidate))
    return preds
