"""On-disk grid checkpoints at CA exchange boundaries.

The CA scheme makes every ``s``-th iteration a natural recovery line:
tile cores hold exact iteration-``c`` values there (they hold exact
values at *every* iteration -- the conformance suite proves it -- but
the superstep boundary is where the paper's scheme is also globally
exchanged, so checkpointing there costs one extra copy per superstep
and aligns recovery with the algorithm's own cadence).

A :class:`CheckpointStore` is a directory of raw ``.npy`` rectangles,
one file per rectangle of cells a task wrote, named by step, *global*
origin and shape.  A step counts as *complete* once its rectangles
cover every cell of the grid, whatever partition wrote them: attempts
with different partitions (a restart on fewer nodes) share one
directory, and a node dying mid-checkpoint leaves a step that is not
restartable rather than one that is torn.  Both save and load stay a
single contiguous read/write per rectangle (an order of magnitude
cheaper than a zip container, which matters because checkpointing sits
on the hot path of every superstep).  Writes are atomic (tmp + rename)
and idempotent, and because the store is plain files it survives
process death -- exactly the property the processes backend's recovery
path needs.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np

from ..core.store import atomic_write

_RECT_RE = re.compile(r"^step(\d+)_r(\d+)_c(\d+)_(\d+)x(\d+)\.npy$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or reassembled."""


class CheckpointStore:
    """A directory of per-(step, rectangle) grid checkpoints.

    ``meta.json`` records the grid shape; :meth:`ensure_meta` writes it
    once (first writer wins, so every forked node process agrees on
    what a complete step covers).
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._meta: dict | None = None

    # -- metadata --------------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.root / "meta.json"

    def ensure_meta(self, shape: tuple[int, int]) -> None:
        if self.meta_path.exists():
            return
        doc = {"shape": [int(shape[0]), int(shape[1])]}
        atomic_write(self.meta_path,
                     lambda fh: fh.write(json.dumps(doc).encode()))

    def meta(self) -> dict | None:
        if self._meta is None and self.meta_path.exists():
            with open(self.meta_path) as fh:
                self._meta = json.load(fh)
        return self._meta

    # -- writes ----------------------------------------------------------

    def save(self, step: int, r0: int, c0: int, cells: np.ndarray) -> None:
        """Atomically persist the rectangle ``cells`` whose top-left
        cell is global ``(r0, c0)``, at global sweep ``step``.  A
        repeated save (a retried superstep, or another attempt's
        partition cutting the same rectangle) is a no-op: the data is
        identical by determinism."""
        h, w = cells.shape
        path = self.root / f"step{step:06d}_r{r0}_c{c0}_{h}x{w}.npy"
        if path.exists():
            return
        atomic_write(path, lambda fh: np.save(fh, np.ascontiguousarray(cells)))

    # -- reads -----------------------------------------------------------

    def _rects(self) -> dict[int, list[tuple[Path, slice, slice]]]:
        """step -> ``(file, rows, cols)`` of every rectangle on disk."""
        rects: dict[int, list] = {}
        for entry in self.root.iterdir():
            m = _RECT_RE.match(entry.name)
            if m:
                step, r0, c0, h, w = map(int, m.groups())
                rects.setdefault(step, []).append(
                    (entry, slice(r0, r0 + h), slice(c0, c0 + w)))
        return rects

    def _covered(self, rects) -> np.ndarray:
        covered = np.zeros(tuple(self.meta()["shape"]), dtype=bool)
        for _, rows, cols in rects:
            covered[rows, cols] = True
        return covered

    def complete_steps(self) -> list[int]:
        """Sweeps whose rectangles cover the grid, ascending
        (restartable points)."""
        if self.meta() is None:
            return []
        return sorted(step for step, rects in self._rects().items()
                      if self._covered(rects).all())

    def latest_complete(self) -> int | None:
        """The newest complete sweep, or None -- also when the store
        cannot be read (a removed directory, a ``meta.json`` that is not
        this format's): a loss report names no restart point then, and
        does not fail."""
        try:
            steps = self.complete_steps()
        except (OSError, ValueError, KeyError):
            return None
        return steps[-1] if steps else None

    def load_grid(self, step: int) -> np.ndarray:
        """Reassemble the full grid of sweep ``step`` from its
        rectangles (partition-independent: they carry global
        coordinates, and where two overlap they hold the same values)."""
        if self.meta() is None:
            raise CheckpointError(f"no meta.json under {self.root}")
        rects = self._rects().get(step, [])
        covered = self._covered(rects)
        if not covered.all():
            raise CheckpointError(
                f"checkpoint step {step} incomplete: {int(covered.sum())} of "
                f"{covered.size} cells on disk"
            )
        grid = np.empty(covered.shape)
        for path, rows, cols in rects:
            grid[rows, cols] = np.load(path)
        return grid


__all__ = ["CheckpointError", "CheckpointStore"]
