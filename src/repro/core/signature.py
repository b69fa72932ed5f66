"""Shared fingerprint / signature helpers.

Two subsystems key persistent state by "what exactly is this run":
the autotuner cache (:mod:`repro.tuning.cache`) and the solver
service's result cache (:mod:`repro.serve.cache`).  They used to grow
near-duplicate hashing paths; this module is the single home of

* :func:`fingerprint_dataclass` -- short stable hash over *every*
  field of a (nested) dataclass, the scheme
  :meth:`~repro.machine.machine.MachineSpec.fingerprint` uses so that
  editing one calibrated constant invalidates every dependent entry;
* :func:`problem_signature` -- the human-readable identity the tuner
  keys on (extents, iterations, weight family, forcing presence);
* :func:`problem_content_key` / :func:`solve_signature` -- the *full*
  content key the result cache needs: unlike the tuner (where two
  problems with different boundary values share an optimum), serving
  a cached solution grid requires every number that shapes the answer
  -- weights, initial data, boundary, forcing -- to be part of the
  key.  Callable initialisers are hashed by materialising them, so a
  closure and a constant that produce the same grid hash identically.

Keep this module cheap to import: numpy only, no sibling packages
at import time (machine/stencil objects arrive as arguments,
duck-typed).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from typing import Any

import numpy as np

#: Hex digits of the short hashes (same truncation the tuning cache
#: has always used via ``MachineSpec.fingerprint``).
FINGERPRINT_LEN = 12


def _sha(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


def fingerprint_dataclass(obj: Any, length: int = FINGERPRINT_LEN) -> str:
    """Short stable hash over every field of a (nested) dataclass."""
    blob = json.dumps(dataclasses.asdict(obj), sort_keys=True, default=str)
    return _sha(blob.encode())[:length]


def machine_fingerprint(machine: Any, length: int = FINGERPRINT_LEN) -> str:
    """Fingerprint of a :class:`~repro.machine.machine.MachineSpec`
    (node model, network model, node count -- everything)."""
    return fingerprint_dataclass(machine, length=length)


def problem_signature(problem: Any) -> str:
    """Stable identity of what is being solved, as far as *tuning*
    cares: extents, iteration count, stencil-weight family and whether
    a forcing term adds memory traffic.  (Boundary and initial values
    do not move the optimum, so they are deliberately absent.)"""
    nrows, ncols = problem.shape
    return (
        f"{nrows}x{ncols}-it{problem.iterations}"
        f"-{type(problem.weights).__name__}"
        f"-{'src' if problem.source is not None else 'nosrc'}"
    )


def array_digest(arr: np.ndarray) -> str:
    """Content hash of one array (shape + dtype + bytes)."""
    a = np.ascontiguousarray(arr)
    meta = f"{a.shape}:{a.dtype.str}:".encode()
    return _sha(meta + a.tobytes())


def _token(value: Any) -> Any:
    """JSON-serialisable token for one field value.  Arrays hash by
    content; nested dataclasses recurse; callables are rejected (the
    caller materialises them first)."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, np.ndarray):
        return {"ndarray": array_digest(value)}
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            f.name: _token(getattr(value, f.name))
            for f in dataclasses.fields(value)
        }
    if isinstance(value, (tuple, list)):
        return [_token(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _token(v) for k, v in sorted(value.items())}
    if callable(value):
        raise TypeError(
            "callable reached the signature tokenizer; materialise it "
            "into an array first (see problem_content_key)"
        )
    return {"repr": repr(value)}


def problem_content_key(problem: Any) -> dict:
    """Every number that shapes the *answer* of a Jacobi solve, as a
    JSON-safe document.

    Constant initial/boundary/forcing values enter directly; callables
    are materialised onto the grid (``initial_grid`` / ``bc.frame`` /
    ``source_grid``) and hashed by content, so equal data gives equal
    keys regardless of how it was specified.
    """
    nrows, ncols = problem.shape
    doc: dict[str, Any] = {
        "shape": [nrows, ncols],
        "iterations": problem.iterations,
        "weights": _token(problem.weights),
    }
    init = problem.init
    doc["init"] = (
        {"grid": array_digest(problem.initial_grid())}
        if callable(init) else float(init)
    )
    bc_value = problem.bc.value
    doc["bc"] = (
        {"frame": array_digest(problem.bc.frame(nrows, ncols))}
        if callable(bc_value) else float(bc_value)
    )
    source = problem.source
    if source is None:
        doc["source"] = None
    elif callable(source):
        doc["source"] = {"grid": array_digest(problem.source_grid())}
    else:
        doc["source"] = float(source)
    return doc


def solve_signature(
    problem: Any,
    machine: Any,
    impl: str,
    **params: Any,
) -> str:
    """Content key of one solve: a repeated request with this
    signature must produce a bit-identical solution grid.

    ``params`` carries the solver knobs that change the *arithmetic*
    of the answer (tile, steps, ratio...).  Knobs that only move the
    schedule (policy, jobs, backend) may be included or not at the
    caller's discretion -- the conformance suite proves grids are
    bit-identical across backends, so the serve result cache leaves
    them out.
    """
    doc = {
        "problem": problem_content_key(problem),
        "machine": machine_fingerprint(machine),
        "impl": impl,
        "params": {k: _token(v) for k, v in sorted(params.items())},
    }
    blob = json.dumps(doc, sort_keys=True)
    return _sha(blob.encode())


__all__ = [
    "FINGERPRINT_LEN",
    "array_digest",
    "fingerprint_dataclass",
    "machine_fingerprint",
    "problem_content_key",
    "problem_signature",
    "solve_signature",
]
