"""The autotuner's search space: what configurations are even legal.

The paper picks its operating points by hand -- a single-node tile
sweep (Fig. 6) and a step-size study (Fig. 9).  This module makes that
space a first-class object: a :class:`Candidate` is one complete
runner configuration (tile, CA step, scheduling policy, comm overlap,
boundary priority), and a :class:`SearchSpace` enumerates candidates
*after* pruning everything the decomposition forbids, so invalid
combinations are never handed to the runner at all:

* the tile must fit inside (and, by default, exactly divide) every
  node block the two-level decomposition produces -- ragged tiles make
  Fig. 6 numbers incomparable across the sweep;
* the CA step ``s`` must fit the tile (``s``-deep PA1 strips must come
  from a single tile, the same constraint ``core/spec.py`` enforces);
* the scheduling policy must be one the schedulers know.

``SearchSpace.for_problem`` derives a default space from the problem
and machine alone: divisors of the node-block extents, geometrically
thinned, crossed with the paper's step-size ladder.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace
from itertools import product
from typing import Iterator

from ..core.config import applicable, applies
from ..distgrid.partition import ProcessGrid, even_split
from ..machine.machine import MachineSpec
from ..runtime.scheduler import POLICIES
from ..stencil.problem import JacobiProblem

#: Step sizes the default space explores (Fig. 9's ladder plus the
#: base-equivalent s=1 and a few intermediate points).
DEFAULT_STEPS = (1, 2, 4, 5, 8, 10, 15, 20, 25, 40)

#: Ceiling on tasks per iteration a candidate may generate -- a budget
#: guard so the tuner never queues a simulation with millions of tasks.
DEFAULT_MAX_TASKS = 20_000


@dataclass(frozen=True, order=True)
class Candidate:
    """One complete tunable configuration of :func:`repro.core.runner.run`
    (every field is a ``RunConfig`` knob; unlike a ``RunConfig`` it may
    hold illegal values, for :func:`invalid_reason` to explain)."""

    tile: int
    steps: int = 1
    policy: str = "priority"
    overlap: bool = True
    boundary_priority: bool = True

    def run_kwargs(self, impl: str) -> dict:
        """The runner keyword arguments this candidate selects: its
        fields, minus what ``impl`` has no use for."""
        kwargs = applicable({"impl": impl, **asdict(self)})
        del kwargs["impl"]
        return kwargs

    def label(self) -> str:
        parts = [f"tile={self.tile}"]
        if self.steps != 1:
            parts.append(f"s={self.steps}")
        if self.policy != "priority":
            parts.append(self.policy)
        if not self.overlap:
            parts.append("no-overlap")
        if not self.boundary_priority:
            parts.append("no-bprio")
        return " ".join(parts)


def block_extents(
    problem: JacobiProblem, machine: MachineSpec, pgrid: ProcessGrid | None = None
) -> list[int]:
    """Distinct node-block edge lengths of the two-level decomposition."""
    pg = pgrid or ProcessGrid.square(machine.nodes)
    rows = even_split(problem.shape[0], pg.rows)
    cols = even_split(problem.shape[1], pg.cols)
    return sorted(set(rows) | set(cols))


def invalid_reason(
    candidate: Candidate,
    problem: JacobiProblem,
    machine: MachineSpec,
    impl: str,
    require_divisible: bool = True,
) -> str | None:
    """Why ``candidate`` must never run, or None if it is legal.

    Mirrors the constraints ``core/spec.py`` and the partition enforce,
    so pruning happens before any graph is built.
    """
    if candidate.tile < 1:
        return "tile size must be >= 1"
    extents = block_extents(problem, machine)
    if candidate.tile > extents[0]:
        return (
            f"tile {candidate.tile} exceeds the smallest node block "
            f"({extents[0]} cells)"
        )
    if require_divisible and any(b % candidate.tile for b in extents):
        return (
            f"tile {candidate.tile} does not divide the node blocks "
            f"{extents} (ragged tiles skew the sweep)"
        )
    if candidate.steps < 1:
        return "step size must be >= 1"
    if applies("steps", impl):
        if candidate.steps > candidate.tile:
            return (
                f"step size {candidate.steps} exceeds tile {candidate.tile}; "
                "the s-deep PA1 halo must come from a single tile"
            )
    elif candidate.steps != 1:
        return f"step size applies to ca-parsec only, not {impl}"
    if candidate.policy not in POLICIES:
        return (
            f"unknown policy {candidate.policy!r}; "
            f"choices: {tuple(sorted(POLICIES))}"
        )
    return None


def _divisors(value: int) -> list[int]:
    out = set()
    for d in range(1, math.isqrt(value) + 1):
        if value % d == 0:
            out.add(d)
            out.add(value // d)
    return sorted(out)


def _thin_geometric(values: list[int], count: int) -> tuple[int, ...]:
    """Keep at most ``count`` values, log-spaced across the range."""
    if len(values) <= count:
        return tuple(values)
    lo, hi = values[0], values[-1]
    picked: list[int] = []
    for i in range(count):
        target = lo * (hi / lo) ** (i / (count - 1))
        nearest = min(values, key=lambda v: (abs(math.log(v / target)), v))
        if nearest not in picked:
            picked.append(nearest)
    return tuple(sorted(picked))


@dataclass(frozen=True)
class SearchSpace:
    """Axes the tuner crosses, plus the validity flag for ragged grids.

    ``require_divisible`` is dropped automatically by
    :meth:`for_problem` when the grid's node blocks share no useful
    divisors (prime extents); tiles are then only required to fit.
    """

    tiles: tuple[int, ...]
    steps: tuple[int, ...] = (1,)
    policies: tuple[str, ...] = ("priority",)
    overlaps: tuple[bool, ...] = (True,)
    boundary_priorities: tuple[bool, ...] = (True,)
    require_divisible: bool = True

    def __post_init__(self) -> None:
        if not self.tiles:
            raise ValueError("a search space needs at least one tile size")

    @property
    def size(self) -> int:
        return (
            len(self.tiles) * len(self.steps) * len(self.policies)
            * len(self.overlaps) * len(self.boundary_priorities)
        )

    def all_candidates(self) -> Iterator[Candidate]:
        """Every axis combination, valid or not, in sorted order."""
        combos = product(
            sorted(self.tiles), sorted(self.steps), sorted(self.policies),
            sorted(self.overlaps), sorted(self.boundary_priorities),
        )
        for combo in combos:  # axis order == Candidate field order
            yield Candidate(*combo)

    def candidates(
        self, problem: JacobiProblem, machine: MachineSpec, impl: str
    ) -> list[Candidate]:
        """The legal candidates for this problem/machine/impl."""
        return [
            c for c in self.all_candidates()
            if invalid_reason(c, problem, machine, impl,
                              self.require_divisible) is None
        ]

    def pruned(
        self, problem: JacobiProblem, machine: MachineSpec, impl: str
    ) -> list[tuple[Candidate, str]]:
        """The rejected candidates with the constraint each violated."""
        out = []
        for c in self.all_candidates():
            reason = invalid_reason(c, problem, machine, impl,
                                    self.require_divisible)
            if reason is not None:
                out.append((c, reason))
        return out

    def narrowed(
        self, tile: int | None = None, steps: int | None = None
    ) -> "SearchSpace":
        """Pin axes the caller fixed by hand (``run(tile=288,
        steps="auto")``); a pinned tile drops the divisibility
        requirement -- the user's choice stands."""
        space = self
        if tile is not None:
            space = replace(space, tiles=(tile,), require_divisible=False)
        if steps is not None:
            space = replace(space, steps=(steps,))
        return space

    @classmethod
    def for_problem(
        cls,
        problem: JacobiProblem,
        machine: MachineSpec,
        impl: str = "ca-parsec",
        wide: bool = False,
        max_tiles: int = 12,
        max_tasks: int = DEFAULT_MAX_TASKS,
    ) -> "SearchSpace":
        """Derive the default space from the decomposition.

        Tile candidates are the common divisors of every node-block
        extent (so tiles always divide blocks), capped below by the
        task-count guard and thinned to ``max_tiles`` log-spaced
        values.  ``wide=True`` adds the scheduling axes (policy,
        overlap, boundary priority) on top of the geometric ones.
        """
        extents = block_extents(problem, machine)
        gcd = extents[0]
        for b in extents[1:]:
            gcd = math.gcd(gcd, b)
        nrows, ncols = problem.shape

        def task_count(tile: int) -> int:
            return math.ceil(nrows / tile) * math.ceil(ncols / tile)

        tiles = [d for d in _divisors(gcd)
                 if d >= 2 and task_count(d) <= max_tasks]
        require_divisible = True
        if len(tiles) < 2:
            # Ragged decomposition (prime-ish extents): fall back to a
            # geometric ladder of fitting (possibly non-dividing) tiles.
            require_divisible = False
            hi = extents[0]
            lo = max(2, next((t for t in range(2, hi + 1)
                              if task_count(t) <= max_tasks), hi))
            ladder = sorted({
                max(lo, min(hi, round(lo * (hi / lo) ** (i / (max_tiles - 1)))))
                for i in range(max_tiles)
            }) if hi > lo else [hi]
            tiles = ladder
        steps = (1,)
        if applies("steps", impl):
            # s > iterations degenerates to s = iterations; don't spend
            # budget on duplicates.
            cap = min(max(tiles), max(1, problem.iterations))
            steps = tuple(s for s in DEFAULT_STEPS if s <= cap) or (1,)
        policies = tuple(sorted(POLICIES)) if wide else ("priority",)
        overlaps = (False, True) if wide else (True,)
        bprios = (False, True) if wide else (True,)
        return cls(
            tiles=_thin_geometric(tiles, max_tiles),
            steps=steps,
            policies=policies,
            overlaps=overlaps,
            boundary_priorities=bprios,
            require_divisible=require_divisible,
        )
