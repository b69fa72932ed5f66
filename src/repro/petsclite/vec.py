"""Distributed vectors with PETSc-style row-block layouts.

PETSc gives each MPI process a contiguous block of vector entries
(``PetscSplitOwnership``: sizes differing by at most one).  We simulate
all ranks in one process: a :class:`Vec` is a list of per-rank local
arrays plus the shared :class:`VecLayout`.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..distgrid.partition import even_split


@dataclass(frozen=True)
class VecLayout:
    """Ownership map of a global vector of ``n`` entries over
    ``nranks`` processes."""

    n: int
    nranks: int

    def __post_init__(self) -> None:
        if self.n < self.nranks or self.nranks < 1:
            raise ValueError(
                f"cannot lay {self.n} entries out over {self.nranks} ranks"
            )

    @cached_property
    def ranges(self) -> tuple[int, ...]:
        """``nranks + 1`` offsets; rank r owns [ranges[r], ranges[r+1])."""
        sizes = even_split(self.n, self.nranks)
        offsets = [0]
        for s in sizes:
            offsets.append(offsets[-1] + s)
        return tuple(offsets)

    def range_of(self, rank: int) -> tuple[int, int]:
        if not 0 <= rank < self.nranks:
            raise IndexError(f"rank {rank} outside layout of {self.nranks}")
        return self.ranges[rank], self.ranges[rank + 1]

    def local_size(self, rank: int) -> int:
        lo, hi = self.range_of(rank)
        return hi - lo

    def owner(self, index: int) -> int:
        """Rank owning global ``index`` (binary search, like PETSc's
        ``PetscLayoutFindOwner``)."""
        if not 0 <= index < self.n:
            raise IndexError(f"global index {index} outside vector of {self.n}")
        return bisect_right(self.ranges, index) - 1

    def owners(self, indices: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`owner`."""
        idx = np.asarray(indices)
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise IndexError("global indices outside the vector")
        return np.searchsorted(np.asarray(self.ranges), idx, side="right") - 1


class Vec:
    """A distributed vector: one local numpy array per rank."""

    def __init__(self, layout: VecLayout, locals_: list[np.ndarray] | None = None):
        self.layout = layout
        if locals_ is None:
            locals_ = [np.zeros(layout.local_size(r)) for r in range(layout.nranks)]
        if len(locals_) != layout.nranks:
            raise ValueError("one local array per rank required")
        for r, arr in enumerate(locals_):
            if arr.shape != (layout.local_size(r),):
                raise ValueError(
                    f"rank {r} local size {arr.shape} != {layout.local_size(r)}"
                )
        self.locals = locals_

    # -- construction -----------------------------------------------------

    @classmethod
    def from_global(cls, layout: VecLayout, values: np.ndarray) -> "Vec":
        values = np.asarray(values, dtype=np.float64).ravel()
        if values.shape != (layout.n,):
            raise ValueError(f"global array of {values.shape} != ({layout.n},)")
        return cls(
            layout,
            [values[slice(*layout.range_of(r))].copy() for r in range(layout.nranks)],
        )

    # -- access ------------------------------------------------------------

    def local(self, rank: int) -> np.ndarray:
        return self.locals[rank]

    def to_global(self) -> np.ndarray:
        return np.concatenate(self.locals)
