"""Two-level domain decomposition: node blocks, then tiles.

The paper arranges nodes "into square compute grid and the data tiles
were allocated in a 2D block fashion to exploit the surface-to-volume
ratio effect": the global grid is first split into P x Q node blocks
(as square as possible), and each node's block is further divided into
tiles that individual tasks operate on.  Tiles therefore never span
two nodes, and facing tiles always share their perpendicular index
range -- the property the halo strips rely on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .halo import Corner, Side


@dataclass(frozen=True)
class ProcessGrid:
    """A P x Q arrangement of node ranks, row-major."""

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows < 1 or self.cols < 1:
            raise ValueError("process grid dimensions must be >= 1")

    @property
    def size(self) -> int:
        return self.rows * self.cols

    def rank(self, pr: int, pc: int) -> int:
        if not (0 <= pr < self.rows and 0 <= pc < self.cols):
            raise IndexError(f"process coords ({pr}, {pc}) outside {self}")
        return pr * self.cols + pc

    def coords(self, rank: int) -> tuple[int, int]:
        if not 0 <= rank < self.size:
            raise IndexError(f"rank {rank} outside {self}")
        return divmod(rank, self.cols)

    @classmethod
    def square(cls, nodes: int) -> "ProcessGrid":
        """Most-square factorisation of ``nodes`` (paper runs used
        perfect squares: 4, 16, 64)."""
        if nodes < 1:
            raise ValueError("need at least one node")
        p = int(math.isqrt(nodes))
        while nodes % p != 0:
            p -= 1
        return cls(rows=p, cols=nodes // p)


def even_split(total: int, parts: int) -> list[int]:
    """Split ``total`` cells into ``parts`` contiguous chunks whose
    sizes differ by at most one (the first ``total % parts`` chunks get
    the extra cell), like PETSc's ``PetscSplitOwnership``."""
    if parts < 1:
        raise ValueError("need at least one part")
    if total < parts:
        raise ValueError(f"cannot give {parts} parts of a {total}-cell extent")
    base, extra = divmod(total, parts)
    return [base + (1 if p < extra else 0) for p in range(parts)]


def tile_split(extent: int, tile: int) -> list[int]:
    """Split one node-block extent into tiles of ``tile`` cells, last
    tile possibly smaller."""
    if tile < 1:
        raise ValueError("tile size must be >= 1")
    sizes = [tile] * (extent // tile)
    if extent % tile:
        sizes.append(extent % tile)
    return sizes


@dataclass(frozen=True)
class GridPartition:
    """Partition of an ``nrows x ncols`` grid over ``pgrid`` nodes with
    tiles of at most ``tile x tile`` cells.

    Tile coordinates are global: tile (i, j) covers rows
    ``row_starts[i]:row_starts[i+1]`` and the analogous columns, and is
    owned by ``owner(i, j)``.
    """

    nrows: int
    ncols: int
    pgrid: ProcessGrid
    tile: int

    def __post_init__(self) -> None:
        if self.nrows < self.pgrid.rows or self.ncols < self.pgrid.cols:
            raise ValueError("grid smaller than the process grid")
        if self.tile < 1:
            raise ValueError("tile size must be >= 1")

    # -- per-axis decompositions (cached, shared by rows/cols) ---------

    @cached_property
    def _row_layout(self) -> tuple[list[int], list[int]]:
        return self._axis_layout(self.nrows, self.pgrid.rows)

    @cached_property
    def _col_layout(self) -> tuple[list[int], list[int]]:
        return self._axis_layout(self.ncols, self.pgrid.cols)

    def _axis_layout(self, extent: int, nblocks: int) -> tuple[list[int], list[int]]:
        """Returns (tile boundary offsets, owning block per tile)."""
        starts = [0]
        owners: list[int] = []
        for block, size in enumerate(even_split(extent, nblocks)):
            for t in tile_split(size, self.tile):
                starts.append(starts[-1] + t)
                owners.append(block)
        return starts, owners

    # -- shapes ----------------------------------------------------------

    @cached_property
    def tile_shape(self) -> tuple[int, int]:
        """(tile rows, tile cols) in the global tile index space."""
        return len(self._row_layout[1]), len(self._col_layout[1])

    def tiles(self):
        """Iterate all global tile coordinates, row-major."""
        tr, tc = self.tile_shape
        for i in range(tr):
            for j in range(tc):
                yield (i, j)

    # -- geometry ----------------------------------------------------------

    def tile_rows(self, i: int) -> tuple[int, int]:
        starts = self._row_layout[0]
        if not 0 <= i < len(starts) - 1:
            raise IndexError(f"tile row {i} out of range")
        return starts[i], starts[i + 1]

    def tile_cols(self, j: int) -> tuple[int, int]:
        starts = self._col_layout[0]
        if not 0 <= j < len(starts) - 1:
            raise IndexError(f"tile col {j} out of range")
        return starts[j], starts[j + 1]

    def min_tile_dim(self) -> int:
        """Smallest tile edge anywhere -- the upper bound on the CA step
        size."""
        row_sizes = [b - a for a, b in zip(self._row_layout[0], self._row_layout[0][1:])]
        col_sizes = [b - a for a, b in zip(self._col_layout[0], self._col_layout[0][1:])]
        return min(min(row_sizes), min(col_sizes))

    # -- ownership -----------------------------------------------------------

    def block(self, i: int, j: int) -> tuple[int, int]:
        """Process-grid coordinates of the node block holding tile (i, j)."""
        return self._row_layout[1][i], self._col_layout[1][j]

    def owner(self, i: int, j: int) -> int:
        """Node rank owning tile (i, j)."""
        return self.pgrid.rank(*self.block(i, j))

    def neighbor(self, i: int, j: int, side: Side) -> tuple[int, int] | None:
        """Global coords of the tile across ``side``, or None at the
        physical boundary."""
        di, dj = side.offset
        ni, nj = i + di, j + dj
        tr, tc = self.tile_shape
        if 0 <= ni < tr and 0 <= nj < tc:
            return (ni, nj)
        return None

    def diagonal(self, i: int, j: int, corner: Corner) -> tuple[int, int] | None:
        di, dj = corner.offset
        ni, nj = i + di, j + dj
        tr, tc = self.tile_shape
        if 0 <= ni < tr and 0 <= nj < tc:
            return (ni, nj)
        return None

    def is_remote(self, i: int, j: int, side: Side) -> bool:
        """True when the neighbour across ``side`` lives on another node."""
        nb = self.neighbor(i, j, side)
        return nb is not None and self.owner(*nb) != self.owner(i, j)

    def is_node_boundary(self, i: int, j: int) -> bool:
        """A *boundary tile* in the paper's sense: at least one remote
        neighbour."""
        return any(self.is_remote(i, j, s) for s in Side)

    def tiles_of_node(self, rank: int) -> list[tuple[int, int]]:
        return [(i, j) for (i, j) in self.tiles() if self.owner(i, j) == rank]

    def counts(self) -> dict[str, int]:
        """Partition statistics used by reports and tests."""
        total = 0
        boundary = 0
        for (i, j) in self.tiles():
            total += 1
            if self.is_node_boundary(i, j):
                boundary += 1
        return {"tiles": total, "boundary_tiles": boundary, "interior_tiles": total - boundary}
