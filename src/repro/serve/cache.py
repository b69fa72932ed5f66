"""Content-keyed result cache: solve signature -> grid + report.

The answer itself, stored by a deterministic key, one file per entry:

* the key is :meth:`SolveRequest.signature`, a content hash over
  everything that shapes the solution grid, so a hit is *guaranteed*
  bit-identical to recomputing it;
* an entry is ``<signature[:24]>.result``, written atomically: a
  one-line JSON header (schema, full signature, the
  :meth:`SolveOutcome.to_doc` meta, shape, dtype), then the grid's raw
  C-order bytes.  A missing, foreign or torn file is a miss, never a
  crash and never migrated; the next store of its signature replaces it;
* there is no index: a miss is an ``open`` that fails, and ``len()`` and
  the ``max_entries`` LRU bound scan the directory.  Recency of use is
  the file's mtime, stamped explicitly by every store and hit, so
  processes sharing a directory see each other's entries and recency;
* memory holds what is being written (:meth:`remember` until its
  :meth:`put` lands) or was re-read (:meth:`get`, ``memory_entries``).

Entry files are read and written outside the cache lock; every counter
is bumped inside it (single-writer discipline of :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path
from typing import BinaryIO

import numpy as np

from ..core.store import atomic_write
from .request import SolveOutcome

#: Bump when the entry layout changes; entries of another schema are misses.
SCHEMA_VERSION = 2
#: What an entry file's name ends in (after the signature prefix).
SUFFIX = ".result"


def default_cache_dir() -> Path:
    """``$REPRO_SERVE_CACHE`` or ``~/.cache/repro/serve``."""
    env = os.environ.get("REPRO_SERVE_CACHE")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "serve"


class ResultCache:
    """Disk-backed LRU map from solve signature to
    :class:`~repro.serve.request.SolveOutcome`.

    ``memory_entries`` bounds the re-read layer; 0 means there is none
    (every hit after the write window reads the disk), while the
    pending table still answers during the write window."""

    def __init__(self, path: str | Path | None = None, max_entries: int = 256,
                 memory_entries: int = 32, metrics=None) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if memory_entries < 0:
            raise ValueError(
                f"memory_entries must be non-negative, got {memory_entries}")
        self.root = Path(path) if path is not None else default_cache_dir()
        self.max_entries = max_entries
        self.memory_entries = memory_entries
        self._lock = threading.Lock()
        #: re-read outcomes, least recently used first
        self._mem: OrderedDict[str, SolveOutcome] = OrderedDict()
        #: remembered outcomes whose put has not landed yet
        self._pending: dict[str, SolveOutcome] = {}
        self._metrics = metrics
        if metrics is not None:
            self._c_hits = metrics.counter(
                "serve_cache_hits_total", "result-cache hits", "requests")
            self._c_misses = metrics.counter(
                "serve_cache_misses_total", "result-cache misses", "requests")
            self._c_stores = metrics.counter(
                "serve_cache_stores_total", "result-cache inserts", "entries")
            self._c_evictions = metrics.counter(
                "serve_cache_evictions_total", "LRU evictions", "entries")

    def _path(self, signature: str) -> Path:
        return self.root / f"{signature[:24]}{SUFFIX}"

    # -- API -------------------------------------------------------------

    def get(self, signature: str) -> SolveOutcome | None:
        """The cached outcome (marked ``cached=True``) or None.  A hit
        means the stored grid is bit-identical to recomputing the
        request: the signature covers every answer-shaping input.

        A hit from the pending table or from disk is a re-read: it
        admits the outcome to the memory layer.  The entry file is read
        outside the cache lock; an entry evicted meanwhile is a miss."""
        path = self._path(signature)
        with self._lock:
            hot = self._mem.get(signature)
            if hot is not None:
                self._mem.move_to_end(signature)
                _touch(path)
                return self._hit_locked(hot)
            unwritten = self._pending.get(signature)
            if unwritten is not None:
                return self._hit_locked(self._admit(signature, unwritten))

        try:
            with open(path, "rb") as fh:
                outcome = _read_entry(fh, signature)
        except (OSError, ValueError, KeyError, TypeError):
            outcome = None  # absent, foreign or torn: a miss
        with self._lock:
            if outcome is not None and _touch(path):
                return self._hit_locked(self._admit(signature, outcome))
            if self._metrics is not None:
                self._c_misses.inc()
            return None

    def put(self, signature: str, outcome: SolveOutcome) -> None:
        """Insert (or refresh) one outcome and its grid on disk; evicts
        LRU entries beyond ``max_entries``.  The write and the directory
        scan happen outside the cache lock.

        Nothing is added to memory: a landed write ends the outcome's
        pending entry.  A write that raises leaves the pending outcome
        as the only copy, so it moves to the memory layer."""
        path = self._path(signature)
        try:
            atomic_write(path, lambda fh: _write_entry(fh, signature, outcome))
            _touch(path)
            used = self._scan()
            with self._lock:
                evicted = self._evict_locked(used)
                self._pending.pop(signature, None)
                if self._metrics is not None:
                    self._c_stores.inc()
                    if evicted:
                        self._c_evictions.inc(evicted)
        except BaseException:
            with self._lock:
                unwritten = self._pending.pop(signature, None)
                if unwritten is not None:
                    self._admit(signature, unwritten)
            raise

    def remember(self, signature: str, outcome: SolveOutcome) -> None:
        """Serve ``outcome`` from the pending table until its
        :meth:`put` lands; the service resolves its futures after this
        and :meth:`put`s last."""
        with self._lock:
            self._pending[signature] = _frozen(outcome)

    def clear(self) -> None:
        with self._lock:
            for name in self._scan():
                (self.root / name).unlink(missing_ok=True)
            self._mem.clear()
            self._pending.clear()

    def __len__(self) -> int:
        return len(self._scan())

    # -- internals -------------------------------------------------------

    def _hit_locked(self, outcome: SolveOutcome) -> SolveOutcome:
        if self._metrics is not None:
            self._c_hits.inc()
        return replace(outcome, cached=True)

    def _admit(self, signature: str, outcome: SolveOutcome) -> SolveOutcome:
        """Make ``outcome`` the most recently re-read entry, dropping
        the least recently re-read ones beyond ``memory_entries``."""
        self._mem[signature] = outcome = _frozen(outcome)
        self._mem.move_to_end(signature)
        while len(self._mem) > self.memory_entries:
            self._mem.popitem(last=False)
        return outcome

    def _scan(self) -> dict[str, int]:
        """Entry file name -> last use (mtime, ns)."""
        used = {}
        try:
            listing = list(os.scandir(self.root))
        except FileNotFoundError:
            return used  # nothing stored yet
        for item in listing:
            if item.name.endswith(SUFFIX):
                try:
                    used[item.name] = item.stat().st_mtime_ns
                except FileNotFoundError:
                    pass  # evicted by another process meanwhile
        return used

    def _evict_locked(self, used: dict[str, int]) -> int:
        """Unlink the least recently used entries beyond ``max_entries``
        of a scan; returns how many of them this call removed."""
        overflow = len(used) - self.max_entries
        victims = sorted(used, key=lambda name: (used[name], name))[:max(overflow, 0)]
        evicted = 0
        for name in victims:
            try:
                os.unlink(self.root / name)
            except FileNotFoundError:
                continue  # evicted by another put meanwhile
            evicted += 1
        for sig in [s for s in self._mem if self._path(s).name in victims]:
            del self._mem[sig]
        return evicted


def _write_entry(fh: BinaryIO, signature: str, outcome: SolveOutcome) -> None:
    grid = np.ascontiguousarray(outcome.grid)
    head = {"schema": SCHEMA_VERSION, "signature": signature, "meta": outcome.to_doc(),
            "shape": grid.shape, "dtype": grid.dtype.str}
    fh.write(json.dumps(head).encode() + b"\n")
    fh.write(grid)


def _read_entry(fh: BinaryIO, signature: str) -> SolveOutcome:
    """The outcome an entry file holds; ValueError unless it is a whole
    entry of this schema for ``signature``."""
    head = json.loads(fh.readline())
    if head["schema"] != SCHEMA_VERSION or head["signature"] != signature:
        raise ValueError("an entry of another schema or signature")
    grid = np.empty(head["shape"], np.dtype(head["dtype"]))
    if fh.readinto(grid) != grid.nbytes or fh.read(1):
        raise ValueError("a payload of the wrong size")
    return SolveOutcome.from_doc(head["meta"], grid)


def _touch(path: Path) -> bool:
    """Stamp ``path`` as used now (explicitly: the kernel's own stamps
    tie calls that follow closely); False if it is gone."""
    now = time.time_ns()
    try:
        os.utime(path, ns=(now, now))
    except FileNotFoundError:
        return False
    except OSError:
        pass  # a read-only store: recency is best-effort, the hit stands
    return True


def _frozen(outcome: SolveOutcome) -> SolveOutcome:
    """``outcome`` with its grid made read-only: hits share the array."""
    if outcome.grid is not None:
        outcome.grid.setflags(write=False)
    return outcome


__all__ = ["ResultCache", "SCHEMA_VERSION", "default_cache_dir"]
