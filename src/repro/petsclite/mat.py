"""Distributed sparse matrices in PETSc's MPIAIJ format.

Each rank owns a block of rows, stored as *two* CSR matrices: the
diagonal block A (columns the rank owns -- multiplied without any
communication) and the off-diagonal block B (remote columns, compacted
through ``garray`` like PETSc).  ``mult`` follows PETSc's overlapped
schedule: start the scatter, apply A, finish the scatter, apply B.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .scatter import ScatterPlan
from .vec import Vec, VecLayout

if TYPE_CHECKING:
    import scipy.sparse as sp


@dataclass
class _RankBlocks:
    """Per-rank pieces of an MPIAIJ matrix."""

    diag: sp.csr_matrix
    offdiag: sp.csr_matrix  # columns indexed into garray
    garray: np.ndarray  # global column of each compacted off-diag column


class MatAIJ:
    """A row-distributed sparse matrix with PETSc MatMPIAIJ semantics."""

    def __init__(self, row_layout: VecLayout, col_layout: VecLayout, blocks: list[_RankBlocks]):
        if len(blocks) != row_layout.nranks:
            raise ValueError("one block pair per rank required")
        self.row_layout = row_layout
        self.col_layout = col_layout
        self.blocks = blocks
        self.scatter = ScatterPlan.build(
            col_layout, [b.garray for b in blocks]
        )

    # -- assembly -------------------------------------------------------------

    @classmethod
    def from_coo(
        cls,
        row_layout: VecLayout,
        col_layout: VecLayout,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
    ) -> "MatAIJ":
        """Assemble from global COO triplets (duplicates are summed,
        like ADD_VALUES assembly)."""
        # Imported here, not at module level: the runner imports this
        # package for every impl, and scipy costs each process (forked
        # node processes included) 0.15 s and ~20 MiB that only
        # PETSc-lite runs use.
        import scipy.sparse as sp

        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        vals = np.asarray(vals, dtype=np.float64)
        if not (rows.shape == cols.shape == vals.shape):
            raise ValueError("rows/cols/vals must have identical shapes")
        blocks = []
        for rank in range(row_layout.nranks):
            r0, r1 = row_layout.range_of(rank)
            c0, c1 = col_layout.range_of(rank)
            mine = (rows >= r0) & (rows < r1)
            lr = rows[mine] - r0
            lc = cols[mine]
            lv = vals[mine]
            on_diag = (lc >= c0) & (lc < c1)
            diag = sp.coo_matrix(
                (lv[on_diag], (lr[on_diag], lc[on_diag] - c0)),
                shape=(r1 - r0, c1 - c0),
            ).tocsr()
            off_rows = lr[~on_diag]
            off_cols_global = lc[~on_diag]
            garray = np.unique(off_cols_global)
            off_cols = np.searchsorted(garray, off_cols_global)
            offdiag = sp.coo_matrix(
                (lv[~on_diag], (off_rows, off_cols)),
                shape=(r1 - r0, garray.size),
            ).tocsr()
            blocks.append(_RankBlocks(diag=diag, offdiag=offdiag, garray=garray))
        return cls(row_layout, col_layout, blocks)

    # -- operations -------------------------------------------------------------

    def mult(self, x: Vec, y: Vec | None = None) -> Vec:
        """y = A @ x with PETSc's overlapped schedule (scatter begin,
        diagonal multiply, scatter end, off-diagonal multiply)."""
        if x.layout != self.col_layout:
            raise ValueError("x layout mismatch")
        y = y if y is not None else Vec(self.row_layout)
        for rank in range(self.row_layout.nranks):
            y.locals[rank] = self.mult_local(x, rank)
        return y

    def mult_local(self, x: Vec, rank: int) -> np.ndarray:
        """One rank's rows of A @ x (used by the task-graph driver)."""
        ghosts = self.scatter.gather(x, rank)
        return self.apply_blocks(rank, x.local(rank), ghosts)

    def apply_blocks(
        self, rank: int, x_local: np.ndarray, x_ghost: np.ndarray
    ) -> np.ndarray:
        """Diagonal-plus-offdiagonal multiply from explicit buffers."""
        blocks = self.blocks[rank]
        out = blocks.diag @ x_local
        if blocks.garray.size:
            out += blocks.offdiag @ x_ghost
        return out

    def nnz(self) -> int:
        return sum(int(b.diag.nnz + b.offdiag.nnz) for b in self.blocks)

    def to_dense(self) -> np.ndarray:
        """Gather the whole matrix (tests/small problems only)."""
        n, m = self.row_layout.n, self.col_layout.n
        out = np.zeros((n, m))
        for rank, blocks in enumerate(self.blocks):
            r0, r1 = self.row_layout.range_of(rank)
            c0, c1 = self.col_layout.range_of(rank)
            out[r0:r1, c0:c1] = blocks.diag.toarray()
            if blocks.garray.size:
                dense_off = blocks.offdiag.toarray()
                for k, gcol in enumerate(blocks.garray):
                    out[r0:r1, gcol] += dense_off[:, k]
        return out
