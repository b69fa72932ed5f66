"""The one atomic on-disk writer.

Every persistent store in the repo (tuning cache, serve result cache,
chaos checkpoints, flight-recorder dumps) publishes a file the same
way: write a hidden sibling temp file, ``os.replace`` it over the
target, and unlink the temp file if anything goes wrong -- so a killed
or failing writer never leaves a torn target or a stray temp file.

Stdlib only: the stores import this at module load.
"""

from __future__ import annotations

import os
import tempfile
from pathlib import Path
from typing import BinaryIO, Callable


def atomic_write(path: str | os.PathLike, write_fn: Callable[[BinaryIO], object]) -> None:
    """Create/replace ``path`` with whatever ``write_fn(fh)`` writes to
    the binary file handle it is given.  The parent directory is
    created on demand; readers see the old content or the new, never a
    partial file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # Hidden name: directory scans (checkpoint rectangles, postmortem-*.json
    # retention) never mistake an in-flight temp file for an entry.
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            write_fn(fh)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


__all__ = ["atomic_write"]
