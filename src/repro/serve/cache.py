"""Content-keyed result cache: solve signature -> grid + report.

Generalises the :mod:`repro.tuning.cache` persistence pattern (one
schema-versioned JSON index, atomic temp-file + ``os.replace`` writes,
re-read-before-replace merge) from "best-known knobs" to "the answer
itself":

* the key is :meth:`SolveRequest.signature` -- a content hash over
  everything that shapes the solution grid (problem data, machine
  fingerprint, impl, tile/steps/ratio), so a hit is *guaranteed*
  bit-identical to recomputing (the conformance suite proves schedule
  knobs cannot change the answer);
* grids live beside the index as compressed ``.npz`` payloads, one
  file per entry, also written atomically, so the index stays small
  and corruption of one payload loses one entry, not the store;
* the store is LRU-bounded (``max_entries``): inserts evict the
  least-recently-used entries and unlink their payloads.  Recency
  from ``get`` is tracked in memory and folded into the index on the
  next ``put`` (best-effort: a read-only session does not persist
  recency, which costs at worst a suboptimal eviction, never a wrong
  answer);
* the memory layer holds what is being written or has been re-read,
  nothing else: :meth:`remember` parks an outcome in a pending table
  for the window between its future resolving and its :meth:`put`
  landing, and only :meth:`get` admits to the ``memory_entries``-
  bounded LRU, so a result nobody asks for again lives on disk only
  and a hot entry skips the disk after its first re-read; the parsed
  index is kept too, re-read when another process replaced it.

Unknown schema versions are ignored wholesale, never migrated.
All hit/miss/eviction counters are bumped inside the cache lock
(single-writer discipline of :mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import json
import os
import threading
import time
from collections import OrderedDict
from dataclasses import replace
from pathlib import Path

import numpy as np

from ..core.store import atomic_write
from .request import SolveOutcome

#: Bump when the entry layout changes; old stores are treated as empty.
SCHEMA_VERSION = 1


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

    def __init__(
        self,
        path: str | Path | None = None,
        max_entries: int = 256,
        memory_entries: int = 32,
        metrics=None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be positive, got {max_entries}")
        if memory_entries < 0:
            raise ValueError(
                f"memory_entries must be non-negative, got {memory_entries}")
        self.root = Path(path) if path is not None else default_cache_dir()
        self.index_path = self.root / "index.json"
        self.max_entries = max_entries
        self.memory_entries = memory_entries
        self._lock = threading.Lock()
        #: re-read outcomes, least recently used first
        self._mem: OrderedDict[str, SolveOutcome] = OrderedDict()
        #: remembered outcomes whose put has not landed yet
        self._pending: dict[str, SolveOutcome] = {}
        #: get-side recency not yet persisted (folded in on put)
        self._touched: dict[str, float] = {}
        #: the parsed index and the (inode, mtime, size) it was read at
        self._entries: dict = {}
        self._stamp: tuple | None = ()  # nothing read yet; None: no index file

        self._metrics = metrics
        if metrics is not None:
            self._c_hits = metrics.counter(
                "serve_cache_hits_total", "result-cache hits", "requests"
            )
            self._c_misses = metrics.counter(
                "serve_cache_misses_total", "result-cache misses", "requests"
            )
            self._c_stores = metrics.counter(
                "serve_cache_stores_total", "result-cache inserts", "entries"
            )
            self._c_evictions = metrics.counter(
                "serve_cache_evictions_total", "LRU evictions", "entries"
            )

    # -- IO --------------------------------------------------------------

    def _index_stamp(self) -> tuple | None:
        try:
            st = os.stat(self.index_path)
        except OSError:
            return None
        return (st.st_ino, st.st_mtime_ns, st.st_size)

    def _load(self) -> dict:
        """The index's entries, parsed again only when the file is not
        the one last read or written here (every write replaces it)."""
        stamp = self._index_stamp()
        if stamp != self._stamp:
            self._entries, self._stamp = {}, stamp
            try:
                doc = json.loads(self.index_path.read_text())
            except (OSError, ValueError):
                doc = None
            if isinstance(doc, dict) and doc.get("schema") == SCHEMA_VERSION \
                    and isinstance(doc.get("entries"), dict):
                self._entries = doc["entries"]
        return self._entries

    def _store(self, entries: dict) -> None:
        doc = {"schema": SCHEMA_VERSION, "entries": entries}
        blob = json.dumps(doc, sort_keys=True).encode()
        atomic_write(self.index_path, lambda fh: fh.write(blob))
        self._entries, self._stamp = entries, self._index_stamp()

    def _grid_path(self, signature: str) -> Path:
        return self.root / f"{signature[:24]}.npz"

    # -- API -------------------------------------------------------------

    def get(self, signature: str) -> SolveOutcome | None:
        """The cached outcome (marked ``cached=True``) or None.  A hit
        means the stored grid is bit-identical to recomputing the
        request: the signature covers every answer-shaping input.

        A hit from the pending table or from disk is a re-read: it
        admits the outcome to the memory layer.  A disk payload is
        decompressed outside the cache lock, so other probes and every
        index merge proceed meanwhile; an entry evicted in between is
        a miss."""
        with self._lock:
            hot = self._mem.get(signature)
            if hot is not None:
                self._mem.move_to_end(signature)
                return self._hit_locked(signature, hot)
            unwritten = self._pending.get(signature)
            if unwritten is not None:
                return self._hit_locked(signature, self._admit(signature, unwritten))
            entry = self._load().get(signature)
            if entry is None:
                return self._miss_locked()

        grid = None
        if entry.get("grid"):
            try:
                with np.load(self.root / entry["grid"]) as payload:
                    grid = payload["grid"]
            except (OSError, ValueError, KeyError):
                entry = None  # payload lost -> treat as a miss
        with self._lock:
            if entry is None or signature not in self._load():
                return self._miss_locked()
            outcome = SolveOutcome.from_doc(entry["meta"], grid)
            return self._hit_locked(signature, self._admit(signature, outcome))

    def put(self, signature: str, outcome: SolveOutcome) -> None:
        """Insert (or refresh) one outcome on disk; evicts LRU entries
        beyond ``max_entries``.  The payload is compressed and written
        before the lock is taken -- a probe never waits behind it --
        and the index is re-read immediately before the atomic
        replace, so concurrent services merge rather than clobber each
        other.

        Nothing is added to memory: a landed write closes the
        outcome's write window (the pending entry :meth:`remember`
        made goes, the disk answers from now on).  A write that raises
        leaves the pending outcome as the only copy, so it moves to
        the memory layer before the error propagates."""
        try:
            grid_name = None
            if outcome.grid is not None:
                grid_name = self._grid_path(signature).name
                grid = np.ascontiguousarray(outcome.grid)
                atomic_write(
                    self._grid_path(signature),
                    lambda fh: np.savez_compressed(fh, grid=grid),
                )
            with self._lock:
                now = time.time()
                entries = self._load()
                for sig, ts in self._touched.items():
                    if sig in entries and ts > entries[sig].get("used", 0):
                        entries[sig]["used"] = ts
                self._touched.clear()
                entries[signature] = {
                    "meta": outcome.to_doc(),
                    "grid": grid_name,
                    "created": now,
                    "used": now,
                }
                evicted = self._evict_locked(entries)
                self._store(entries)
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
            for entry in self._load().values():
                self._unlink_grid(entry)
            self._store({})
            self._mem.clear()
            self._pending.clear()
            self._touched.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._load())

    def entries(self) -> dict:
        """A copy of the on-disk index (metadata only, no grids)."""
        with self._lock:
            return {sig: dict(entry) for sig, entry in self._load().items()}

    # -- internals -------------------------------------------------------

    def _hit_locked(self, signature: str, outcome: SolveOutcome) -> SolveOutcome:
        self._touched[signature] = time.time()
        if self._metrics is not None:
            self._c_hits.inc()
        return replace(outcome, cached=True)

    def _miss_locked(self) -> None:
        if self._metrics is not None:
            self._c_misses.inc()

    def _admit(self, signature: str, outcome: SolveOutcome) -> SolveOutcome:
        """Make ``outcome`` the most recently re-read entry, dropping
        the least recently re-read ones beyond ``memory_entries``."""
        self._mem[signature] = outcome = _frozen(outcome)
        self._mem.move_to_end(signature)
        while len(self._mem) > self.memory_entries:
            self._mem.popitem(last=False)
        return outcome

    def _evict_locked(self, entries: dict) -> int:
        overflow = len(entries) - self.max_entries
        if overflow <= 0:
            return 0
        victims = sorted(entries, key=lambda s: entries[s].get("used", 0))
        for sig in victims[:overflow]:
            self._unlink_grid(entries.pop(sig))
            self._mem.pop(sig, None)
        return overflow

    def _unlink_grid(self, entry: dict) -> None:
        name = entry.get("grid")
        if name:
            try:
                os.unlink(self.root / name)
            except OSError:
                pass


def _frozen(outcome: SolveOutcome) -> SolveOutcome:
    """``outcome`` with its grid made read-only: hits share the array."""
    if outcome.grid is not None:
        try:
            outcome.grid.setflags(write=False)
        except ValueError:
            pass
    return outcome


__all__ = ["ResultCache", "SCHEMA_VERSION", "default_cache_dir"]
