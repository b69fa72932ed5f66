"""Static verification of the CA communication schedule.

Independently of the numerics, this module proves (by exhaustive
cell-age simulation) that a :class:`~repro.core.spec.StencilSpec`'s
schedule never reads stale data: every ghost strip is cut from cells
that actually hold the right iteration's values, and every update
region is fully surrounded by valid cells.  It is the tool that
catches subtle PA1 bugs -- a missing corner block, a strip one cell
too short, an off-by-one in the shrinking halo -- *before* they show
up as wrong numbers, and it runs in O(cells x iterations) without any
floating point.

Each cell of each tile's extended array carries the iteration index of
the value it currently holds (``AGE_BC`` for time-invariant Dirichlet
cells, ``AGE_GARBAGE`` for never-written pads).  Iterations replay the
exact paste/update sequence of the real kernels, checking ages instead
of computing values: what is pasted, from whom and out of which cells
is read from :meth:`StencilSpec.exchange_plan`, the same entries the
task body pastes by.
"""

from __future__ import annotations

import numpy as np

from .spec import StencilSpec

AGE_GARBAGE = -(10**9)
AGE_BC = 10**9


class ScheduleError(AssertionError):
    """The communication schedule would read stale or garbage data."""


def _initial_ages(spec: StencilSpec) -> dict:
    nrows, ncols = spec.problem.shape
    ages = {}
    for tile in spec.tiles():
        age = np.full(tile.ext_shape(), AGE_GARBAGE, dtype=np.int64)
        rs, cs = tile.core_slices()
        age[rs, cs] = 0
        gr, gc = tile.global_coords()
        outside = (gr < 0) | (gr >= nrows) | (gc < 0) | (gc >= ncols)
        age[outside] = AGE_BC
        ages[tile.key] = age
    return ages


def _require(cond: bool, what: str, tile, t: int) -> None:
    if not cond:
        raise ScheduleError(f"iteration {t}, tile {tile.key}: {what}")


def verify_schedule(spec: StencilSpec, iterations: int | None = None) -> int:
    """Replay ``iterations`` steps of the schedule, checking validity.

    Returns the number of cell-checks performed.  Raises
    :class:`ScheduleError` on the first stale read.
    """
    T = spec.problem.iterations if iterations is None else iterations
    ages_prev = _initial_ages(spec)
    plan = spec.exchange_plan()
    checks = 0

    for t in range(T):
        ages_next = {}
        for tile in spec.tiles():
            age = ages_prev[tile.key].copy()

            # Paste incoming ghosts, verifying the producer-side cells.
            for producer, tag, _, dest, shape, source in plan[tile.key][t % spec.steps].incoming:
                block = ages_prev[producer][source]
                if not ((block == t) | (block == AGE_BC)).all():
                    raise ScheduleError(
                        f"iteration {t}, tile {tile.key}: {tag!r} from tile "
                        f"{producer} would ship cells of age {int(block.min())} "
                        f"where iteration {t} values are required (cells {source})"
                    )
                age[dest] = t
                checks += shape[0] * shape[1]

            # The 5-point update reads the region itself plus its four
            # 1-deep side aprons -- a plus shape, never the diagonal
            # ring corners.
            (ra, rb), (ca, cb) = spec.update_region(tile, t)
            read_regions = (
                ((ra, rb), (ca, cb)),
                ((ra - 1, ra), (ca, cb)),  # north apron
                ((rb, rb + 1), (ca, cb)),  # south apron
                ((ra, rb), (ca - 1, ca)),  # west apron
                ((ra, rb), (cb, cb + 1)),  # east apron
            )
            for region in read_regions:
                rs, cs = tile.ext_slices(region)
                read = age[rs, cs]
                ok = (read == t) | (read == AGE_BC)
                if not ok.all():
                    stale = int(read[~ok].max())
                    raise ScheduleError(
                        f"iteration {t}, tile {tile.key}: update of region "
                        f"(({ra}, {rb}), ({ca}, {cb})) reads a cell of age "
                        f"{stale} in {region} (wanted {t})"
                    )
                checks += read.size
            urs, ucs = tile.ext_slices(((ra, rb), (ca, cb)))
            age[urs, ucs] = t + 1
            ages_next[tile.key] = age
        ages_prev = ages_next

    # Terminal invariant: every core holds iteration-T values.
    for tile in spec.tiles():
        rs, cs = tile.core_slices()
        _require(
            bool((ages_prev[tile.key][rs, cs] == T).all()),
            f"final core age != {T}", tile, T,
        )
        checks += tile.h * tile.w
    return checks
