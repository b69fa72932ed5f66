"""Closed-form communication counts for the stencil schemes.

The paper's section V reasons about "the number of floating-point
numbers communicated per processor, and the number of messages sent
per processor" analytically; this module provides those closed forms
for any partition, and the tests cross-check them against the task
graphs' static census -- two routes from the one exchange plan to the
same quantities (per-superstep entries x supersteps vs the unrolled
graph's message plan).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .spec import StencilSpec


@dataclass(frozen=True)
class CommForecast:
    """Analytic communication volume of one full run."""

    messages: int
    bytes: int
    messages_per_superstep: int
    supersteps: int
    redundant_points: int  # replicated updates over the whole run


def remote_edges(spec: StencilSpec) -> int:
    """Directed remote tile edges (= messages per exchanging
    iteration of the base scheme)."""
    return sum(sum(tile.remote) for tile in spec.tiles())


def supersteps(spec: StencilSpec) -> int:
    """Number of remote refreshes in ``spec.problem.iterations``
    iterations (iterations 0, s, 2s, ...)."""
    T = spec.problem.iterations
    return 0 if T == 0 else int(math.ceil(T / spec.steps))


def forecast(spec: StencilSpec) -> CommForecast:
    """Messages, bytes and redundant work of the schedule, closed form.

    For the base scheme (s=1) this is the textbook
    ``edges x iterations`` with one tile-edge of doubles per message;
    for CA it adds the corner blocks and the deep strips' s-fold
    payload, all per superstep: the refresh-phase entries of the
    exchange plan whose producer lives on another node.
    """
    n_super = supersteps(spec)
    plan, owner = spec.exchange_plan(), spec.partition.owner
    crossing = [
        entry.nbytes
        for tile in spec.tiles()
        for entry in plan[tile.key][0].incoming
        if owner(*entry.producer) != tile.node
    ]
    msgs_per_super, bytes_per_super = len(crossing), sum(crossing)

    # Redundant points: per tile per iteration, the update region
    # exceeds the core by a phase-dependent amount; sum the phases
    # actually executed.
    redundant = 0
    T = spec.problem.iterations
    full_cycles, tail = divmod(T, spec.steps)
    for tile in spec.tiles():
        per_phase = [spec.region_points(tile, phase)[1] for phase in range(spec.steps)]
        redundant += full_cycles * sum(per_phase) + sum(per_phase[:tail])

    return CommForecast(
        messages=msgs_per_super * n_super,
        bytes=bytes_per_super * n_super,
        messages_per_superstep=msgs_per_super,
        supersteps=n_super,
        redundant_points=redundant,
    )


def surface_to_volume(spec: StencilSpec) -> float:
    """Mean remote-edge cells per owned cell per node -- the quantity
    the paper's 2D block distribution minimises.  A 1D strip
    arrangement of the same node count has a strictly larger value
    (for more than two nodes)."""
    part = spec.partition
    total_surface = 0
    for tile in spec.tiles():
        north, south, west, east = tile.remote
        total_surface += (north + south) * tile.w + (west + east) * tile.h
    return total_surface / float(part.nrows * part.ncols)
