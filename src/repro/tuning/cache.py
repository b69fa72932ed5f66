"""Persistent store of best-known configurations.

Tuning results are only as reusable as their context: a tile that is
optimal on NaCL's memory/network balance is wrong on Stampede2's, and
the temporal-blocking literature (Wittmann et al., arXiv:0912.4506)
shows the search must be redone whenever that balance changes.  The
cache therefore keys every entry by

    (machine fingerprint, problem signature, backend, impl)

where the machine fingerprint hashes *every* calibrated constant of
the :class:`~repro.machine.machine.MachineSpec` -- edit one bandwidth
and every dependent entry silently misses, forcing a re-tune.

The store is one JSON document with a schema version (unknown versions
are ignored wholesale, never migrated in place) and atomic writes
(temp file + ``os.replace``), so a killed tuning session can corrupt
nothing and concurrent writers lose at worst their own entry.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import asdict
from pathlib import Path

from ..core.signature import problem_signature
from ..core.store import atomic_write
from ..machine.machine import MachineSpec
from ..stencil.problem import JacobiProblem
from .space import Candidate

#: Bump when the entry layout changes; old files are treated as empty.
SCHEMA_VERSION = 1

#: Entry fields a cached winner must provide to be trusted.
REQUIRED_FIELDS = ("tile", "steps", "policy", "overlap", "boundary_priority")

def default_cache_path() -> Path:
    """``$REPRO_TUNING_CACHE`` or ``~/.cache/repro/tuning.json``."""
    env = os.environ.get("REPRO_TUNING_CACHE")
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "repro" / "tuning.json"


def cache_key(
    machine: MachineSpec,
    problem: JacobiProblem,
    backend: str,
    impl: str,
    extra: str = "",
) -> str:
    """The store key: machine fingerprint + problem signature + how the
    refinement runs were produced.  ``extra`` folds in any
    non-candidate runner knobs (e.g. a kernel-adjustment ratio)."""
    key = f"{machine.fingerprint()}:{problem_signature(problem)}:{backend}:{impl}"
    return f"{key}:{extra}" if extra else key


class TuningCache:
    """JSON-backed map from :func:`cache_key` to a winning entry."""

    def __init__(self, path: str | Path | None = None) -> None:
        self.path = Path(path) if path is not None else default_cache_path()

    # -- IO ------------------------------------------------------------

    def _load(self) -> dict:
        try:
            doc = json.loads(self.path.read_text())
        except (OSError, ValueError):
            return {}
        if not isinstance(doc, dict) or doc.get("schema") != SCHEMA_VERSION:
            return {}
        entries = doc.get("entries")
        return entries if isinstance(entries, dict) else {}

    def _store(self, entries: dict) -> None:
        doc = {"schema": SCHEMA_VERSION, "entries": entries}
        blob = json.dumps(doc, indent=2, sort_keys=True).encode()
        atomic_write(self.path, lambda fh: fh.write(blob))

    # -- API -----------------------------------------------------------

    def entries(self) -> dict:
        """Everything currently stored (a copy of the on-disk state)."""
        return self._load()

    def get(
        self,
        machine: MachineSpec,
        problem: JacobiProblem,
        backend: str,
        impl: str,
        extra: str = "",
    ) -> dict | None:
        entry = self._load().get(cache_key(machine, problem, backend, impl, extra))
        if entry is None or not all(f in entry for f in REQUIRED_FIELDS):
            return None
        if entry.get("passes"):
            return None  # won under a graph rewrite there no longer is: re-tune
        return entry

    def put(
        self,
        machine: MachineSpec,
        problem: JacobiProblem,
        backend: str,
        impl: str,
        candidate: Candidate,
        extra: str = "",
        **metrics,
    ) -> dict:
        """Record ``candidate`` as the best-known config for this key.

        The on-disk file is re-read immediately before the atomic
        replace, so two concurrent tuners merge rather than clobber.
        """
        entry = {
            **asdict(candidate),
            "machine": machine.name,
            "nodes": machine.nodes,
            "backend": backend,
            "impl": impl,
            "created": time.time(),
            **metrics,
        }
        entries = self._load()
        entries[cache_key(machine, problem, backend, impl, extra)] = entry
        self._store(entries)
        return entry

    def invalidate(
        self,
        machine: MachineSpec,
        problem: JacobiProblem,
        backend: str,
        impl: str,
        extra: str = "",
    ) -> bool:
        """Drop one entry; True if it existed."""
        entries = self._load()
        existed = entries.pop(
            cache_key(machine, problem, backend, impl, extra), None
        ) is not None
        if existed:
            self._store(entries)
        return existed

    def clear(self) -> None:
        self._store({})

    def candidate_of(self, entry: dict) -> Candidate:
        """Rehydrate the stored winner."""
        return Candidate(
            tile=int(entry["tile"]),
            steps=int(entry["steps"]),
            policy=str(entry["policy"]),
            overlap=bool(entry["overlap"]),
            boundary_priority=bool(entry["boundary_priority"]),
        )
