"""The one atomic on-disk writer.

Every persistent store in the repo (tuning cache, serve result cache,
chaos checkpoints, flight-recorder dumps) publishes a file the same
way: write a hidden sibling temp file, ``os.replace`` it over the
target (or, for files that must never replace another writer's, link
it under the first free name), and unlink the temp file if anything
goes wrong -- so a killed or failing writer never leaves a torn target
or a stray temp file.

Stdlib only: the stores import this at module load.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator


def atomic_write(path: str | os.PathLike, write_fn: Callable[[BinaryIO], object]) -> None:
    """Create/replace ``path`` with whatever ``write_fn(fh)`` writes to
    the binary file handle it is given.  The parent directory is
    created on demand; readers see the old content or the new, never a
    partial file."""
    path = Path(path)
    with _staged(path, write_fn) as tmp:
        os.replace(tmp, path)


def atomic_create(
    paths: Iterable[str | os.PathLike], write_fn: Callable[[BinaryIO], object]
) -> Path:
    """Like :func:`atomic_write`, but never replacing: the file is
    published under the first of ``paths`` that does not exist yet and
    that path is returned.  A hard link fails on an existing name where
    ``os.replace`` would overwrite it, so writers sharing a directory --
    in one process or in several -- never clobber each other."""
    paths = iter(paths)
    path = Path(next(paths))
    with _staged(path, write_fn) as tmp:
        try:
            while True:
                try:
                    os.link(tmp, path)
                    return path
                except FileExistsError:
                    path = Path(next(paths))
        finally:
            os.unlink(tmp)


@contextmanager
def _staged(path: Path, write_fn: Callable[[BinaryIO], object]) -> Iterator[str]:
    """A temp file beside ``path`` holding what ``write_fn`` wrote,
    unlinked if writing or publishing it fails."""
    path.parent.mkdir(parents=True, exist_ok=True)
    # Hidden name: directory scans (checkpoint rectangles, postmortem-*.json
    # retention) never mistake an in-flight temp file for an entry.
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            write_fn(fh)
        yield tmp
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


__all__ = ["atomic_create", "atomic_write"]
