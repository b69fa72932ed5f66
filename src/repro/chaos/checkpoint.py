"""On-disk grid checkpoints at CA exchange boundaries.

The CA scheme makes every ``s``-th iteration a natural recovery line:
tile cores hold exact iteration-``c`` values there (they hold exact
values at *every* iteration -- the conformance suite proves it -- but
the superstep boundary is where the paper's scheme is also globally
exchanged, so checkpointing there costs one extra copy per superstep
and aligns recovery with the algorithm's own cadence).

A :class:`CheckpointStore` is a directory of raw ``.npy`` tiles, one
file per ``(step, tile)``, with the tile's *global* coordinates
encoded in the file name -- so a restart may repartition ownership
(fewer nodes, a different process grid) and still reassemble the
identical grid, and both save and load stay a single contiguous
read/write per tile (an order of magnitude cheaper than a zip
container, which matters because checkpointing sits on the hot path
of every superstep).  Writes are atomic (tmp + rename) and
idempotent; a step counts as *complete* only when every expected tile
is present, so a node dying mid-checkpoint can never produce a
restartable-but-torn state.  Because the store is plain files, it
survives process death -- exactly the property the processes
backend's recovery path needs.
"""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

import numpy as np

from ..core.store import atomic_write

_TILE_RE = re.compile(r"^step(\d+)_(\d+)_(\d+)_r(\d+)_c(\d+)\.npy$")


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read, or reassembled."""


class CheckpointStore:
    """A directory of per-(step, tile) grid checkpoints.

    ``meta.json`` records the expected tile count and grid shape;
    :meth:`ensure_meta` writes it once (first writer wins, so every
    forked node process agrees on completeness).
    """

    def __init__(self, root: str | os.PathLike) -> None:
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self._meta: dict | None = None

    # -- metadata --------------------------------------------------------

    @property
    def meta_path(self) -> Path:
        return self.root / "meta.json"

    def ensure_meta(self, ntiles: int, shape: tuple[int, int],
                    cadence: int) -> None:
        if self.meta_path.exists():
            return
        doc = {"ntiles": int(ntiles), "shape": [int(shape[0]), int(shape[1])],
               "cadence": int(cadence)}
        atomic_write(self.meta_path,
                     lambda fh: fh.write(json.dumps(doc).encode()))

    def meta(self) -> dict | None:
        if self._meta is None and self.meta_path.exists():
            with open(self.meta_path) as fh:
                self._meta = json.load(fh)
        return self._meta

    # -- writes ----------------------------------------------------------

    def tile_path(self, step: int, i: int, j: int, r0: int, c0: int) -> Path:
        return self.root / f"step{step:06d}_{i}_{j}_r{r0}_c{c0}.npy"

    def save(self, step: int, i: int, j: int, core: np.ndarray,
             r0: int, c0: int) -> None:
        """Atomically persist one tile core at global sweep ``step``.
        A repeated save of the same tile (a retried superstep) is a
        no-op: the data is identical by determinism."""
        path = self.tile_path(step, i, j, r0, c0)
        if path.exists():
            return
        atomic_write(path, lambda fh: np.save(fh, np.ascontiguousarray(core)))

    # -- reads -----------------------------------------------------------

    def steps_on_disk(self) -> dict[int, int]:
        """step -> number of tile files present."""
        counts: dict[int, int] = {}
        for entry in self.root.iterdir():
            m = _TILE_RE.match(entry.name)
            if m:
                step = int(m.group(1))
                counts[step] = counts.get(step, 0) + 1
        return counts

    def complete_steps(self) -> list[int]:
        """Sweeps with a full tile set, ascending (restartable points)."""
        meta = self.meta()
        if meta is None:
            return []
        want = meta["ntiles"]
        return sorted(s for s, n in self.steps_on_disk().items() if n >= want)

    def latest_complete(self) -> int | None:
        steps = self.complete_steps()
        return steps[-1] if steps else None

    def load_grid(self, step: int) -> np.ndarray:
        """Reassemble the full grid of sweep ``step`` from its tiles
        (partition-independent: tiles carry global coordinates)."""
        meta = self.meta()
        if meta is None:
            raise CheckpointError(f"no meta.json under {self.root}")
        grid = np.full(tuple(meta["shape"]), np.nan)
        found = 0
        for entry in sorted(self.root.iterdir()):
            m = _TILE_RE.match(entry.name)
            if not m or int(m.group(1)) != step:
                continue
            core = np.load(entry)
            r0, c0 = int(m.group(4)), int(m.group(5))
            grid[r0:r0 + core.shape[0], c0:c0 + core.shape[1]] = core
            found += 1
        if found < meta["ntiles"]:
            raise CheckpointError(
                f"checkpoint step {step} incomplete: {found} of "
                f"{meta['ntiles']} tiles on disk"
            )
        if np.isnan(grid).any():  # pragma: no cover - defensive
            raise CheckpointError(
                f"checkpoint step {step} left uncovered cells"
            )
        return grid

    def clear(self) -> None:
        for entry in self.root.iterdir():
            if _TILE_RE.match(entry.name):
                try:
                    entry.unlink()
                except OSError:  # pragma: no cover - concurrent clear
                    pass


__all__ = ["CheckpointError", "CheckpointStore"]
