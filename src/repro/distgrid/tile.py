"""Tiles and their extended (ghost-padded) arrays.

A :class:`TileSpec` is the static description of one tile: its core
region of the global grid, its per-side pad depths (1 for locally
refreshed ghosts, ``s`` for communication-avoiding remote ghosts) and
which sides face remote neighbours.  The module also provides the
index arithmetic between *tile-relative* coordinates (core cell (0,0)
at the tile's north-west corner, pads at negative / beyond-core
indices) and positions in the extended numpy array.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .halo import SIDES, Side

Region = tuple[tuple[int, int], tuple[int, int]]


@dataclass(frozen=True)
class TileSpec:
    """Static geometry of one tile.

    ``pads``, ``remote`` and ``has_neighbor`` are 4-tuples indexed by
    :class:`~repro.distgrid.halo.Side` (N, S, W, E).
    """

    i: int
    j: int
    r0: int
    r1: int
    c0: int
    c1: int
    node: int
    pads: tuple[int, int, int, int]
    remote: tuple[bool, bool, bool, bool]
    has_neighbor: tuple[bool, bool, bool, bool]

    def __post_init__(self) -> None:
        if self.r1 <= self.r0 or self.c1 <= self.c0:
            raise ValueError("tile core must be non-empty")
        if any(p < 0 for p in self.pads):
            raise ValueError("pads cannot be negative")
        for s in SIDES:
            if self.remote[s] and not self.has_neighbor[s]:
                raise ValueError(f"side {s.name} marked remote but has no neighbour")

    @property
    def h(self) -> int:
        return self.r1 - self.r0

    @property
    def w(self) -> int:
        return self.c1 - self.c0

    @property
    def key(self) -> tuple[int, int]:
        return (self.i, self.j)

    def pad(self, side: Side) -> int:
        return self.pads[side]

    @property
    def origin(self) -> tuple[int, int]:
        """Global (row, col) of cell [0, 0] of the extended array."""
        return (self.r0 - self.pads[0], self.c0 - self.pads[2])

    def ext_shape(self) -> tuple[int, int]:
        pn, ps, pw, pe = self.pads
        return (self.h + pn + ps, self.w + pw + pe)

    def is_boundary(self) -> bool:
        """Boundary tile in the paper's sense (>= 1 remote side)."""
        return any(self.remote)

    # -- coordinate arithmetic ------------------------------------------

    def ext_slices(self, region: Region) -> tuple[slice, slice]:
        """Convert a tile-relative region ((r0, r1), (c0, c1)) -- where
        core rows are [0, h) and pads are negative / beyond -- into
        slices of the extended array, validating bounds."""
        (ra, rb), (ca, cb) = region
        pn, ps, pw, pe = self.pads
        if not (-pn <= ra <= rb <= self.h + ps):
            raise IndexError(f"row range ({ra}, {rb}) outside tile {self.key} pads")
        if not (-pw <= ca <= cb <= self.w + pe):
            raise IndexError(f"col range ({ca}, {cb}) outside tile {self.key} pads")
        return slice(pn + ra, pn + rb), slice(pw + ca, pw + cb)

    def core_slices(self) -> tuple[slice, slice]:
        return self.ext_slices(((0, self.h), (0, self.w)))

    # -- extended-array operations ----------------------------------------

    def alloc_ext(self, dtype=np.float64, fill: float = 0.0) -> np.ndarray:
        return np.full(self.ext_shape(), fill, dtype=dtype)

    def load_core(self, ext: np.ndarray, values: np.ndarray) -> None:
        """Copy ``values`` (h x w) into the core of ``ext``."""
        if values.shape != (self.h, self.w):
            raise ValueError(
                f"core values shape {values.shape} != tile {(self.h, self.w)}"
            )
        rs, cs = self.core_slices()
        ext[rs, cs] = values

    def core(self, ext: np.ndarray) -> np.ndarray:
        """Copy of the core region of ``ext``."""
        rs, cs = self.core_slices()
        return ext[rs, cs].copy()

    def extract(self, ext: np.ndarray, region: Region) -> np.ndarray:
        """Copy a tile-relative region out of ``ext``."""
        rs, cs = self.ext_slices(region)
        return ext[rs, cs].copy()

    def paste(self, ext: np.ndarray, region: Region, values: np.ndarray) -> None:
        """Write ``values`` into a tile-relative region of ``ext``."""
        rs, cs = self.ext_slices(region)
        expected = (rs.stop - rs.start, cs.stop - cs.start)
        if values.shape != expected:
            raise ValueError(
                f"paste shape {values.shape} != region shape {expected} "
                f"(tile {self.key}, region {region})"
            )
        ext[rs, cs] = values

    def global_coords(self) -> tuple[np.ndarray, np.ndarray]:
        """Global (row, col) index grids for every cell of the extended
        array, used to evaluate boundary conditions."""
        (r, c), (eh, ew) = self.origin, self.ext_shape()
        return np.meshgrid(np.arange(r, r + eh), np.arange(c, c + ew), indexing="ij")
