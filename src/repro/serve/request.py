"""Requests, outcomes and the typed errors of the solver service.

A :class:`SolveRequest` is the serving-layer unit of work: a
:class:`~repro.stencil.problem.JacobiProblem` plus the solver knobs
that shape its *answer* (impl, machine, tile, steps, ratio) and the
knobs that shape its *treatment* (tenant, priority, deadline).  The
request knows its own :meth:`~SolveRequest.signature` -- the content
key the result cache stores under and the service deduplicates queued
solves by (see :func:`repro.core.signature.solve_signature`): two
requests with equal signatures must produce bit-identical solution
grids, which the backend-conformance suite guarantees.

A :class:`SolveOutcome` is the reduced, pickle-friendly result the
service hands back: the solution grid plus the report scalars, *not*
the full :class:`~repro.core.report.RunResult` (graphs and kernels do
not cross process boundaries and would pin memory in the cache).
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Any

import numpy as np

from ..core.config import ANSWER, SERVE, RunConfig, applies, knob_names
from ..machine.machine import MachineSpec, nacl
from ..stencil.problem import JacobiProblem


#: The knobs a request may set (everything else about a run is the
#: service's business).
SERVE_KNOBS = knob_names(SERVE)


# -- typed errors --------------------------------------------------------


class ServeError(RuntimeError):
    """Base class of every serving-layer error."""


class QueueFullError(ServeError):
    """Admission control rejected the request: the queue is at its
    depth bound.  Raised synchronously by ``submit`` -- the fast-reject
    contract: a full service says no immediately instead of building
    unbounded backlog."""


class DeadlineExpired(ServeError):
    """The job's deadline passed before it finished; if it was
    running, the worker was cancelled and reclaimed."""


class ServiceClosed(ServeError):
    """The service is not accepting work (not started, or stopping)."""


class WorkerDied(ServeError):
    """A pool worker died mid-solve (killed, crashed, or reaped)."""


class JobSkipped(ServeError):
    """The job was skipped because an upstream attempt of the same
    work exhausted its retry budget: rather than re-running a solve
    that just failed N times, downstream duplicates fail fast with
    this marker (the skip-downstream model of ParallelX-style retry
    semantics)."""


# -- requests ------------------------------------------------------------


@dataclass(frozen=True, init=False)
class SolveRequest:
    """One solve the service should perform.

    The solve-shape knobs (``impl``, ``tile``, ``steps``, ``ratio``,
    ``backend``, ``jobs``, ``policy`` -- the ``SERVE``
    knobs of :class:`~repro.core.config.RunConfig`) are given as
    keywords, validated on construction and carried as ``config``;
    ``request.impl`` etc. read through to it.  Serving always executes
    real kernels, on ``backend="threads"`` unless the request says
    otherwise.

    ``tenant`` / ``priority`` / ``deadline_s`` are the multi-tenant
    knobs: fair-share dequeue interleaves tenants, higher priority
    wins within a tenant, and a deadline (seconds from submission)
    bounds how long the job may queue *plus* run before it is
    cancelled with :class:`DeadlineExpired`.
    """

    problem: JacobiProblem
    machine: MachineSpec
    config: RunConfig
    tenant: str
    priority: int
    deadline_s: float | None
    #: fault plan spec (see :func:`repro.chaos.parse_plan`) injected
    #: into the run -- a chaos job; None runs fault-free.
    chaos_plan: str | None
    #: per-request retry budget override (None -> the service's
    #: ``retry_budget``); a failed attempt re-queues the job until the
    #: budget is spent, resuming from its signature's last checkpoint.
    retries: int | None

    def __init__(
        self,
        problem: JacobiProblem,
        machine: MachineSpec | None = None,
        *,
        tenant: str = "default",
        priority: int = 0,
        deadline_s: float | None = None,
        chaos_plan: str | None = None,
        retries: int | None = None,
        **knobs: Any,
    ) -> None:
        unknown = sorted(set(knobs) - set(SERVE_KNOBS))
        if unknown:
            raise TypeError(
                f"SolveRequest got unexpected knobs {unknown}; a request "
                f"may set {SERVE_KNOBS}"
            )
        config = RunConfig(mode="execute", **{"backend": "threads", **knobs})
        if config.auto:
            raise ValueError(
                "serve requests take a concrete tile and step size (or "
                "tile=None for the model default); run the autotuner "
                "ahead of submission"
            )
        if deadline_s is not None and deadline_s <= 0:
            raise ValueError(
                f"deadline_s must be positive seconds, got {deadline_s}"
            )
        if retries is not None and retries < 0:
            raise ValueError(f"retries cannot be negative, got {retries}")
        if chaos_plan is not None:
            # Validate at admission, not deep inside a worker.
            from ..chaos.plan import parse_plan

            parse_plan(chaos_plan)
        machine = machine or nacl(4)
        self.__dict__.update(  # frozen: assignment is closed
            problem=problem, machine=machine, config=config,
            tenant=tenant, priority=priority, deadline_s=deadline_s,
            chaos_plan=chaos_plan, retries=retries,
        )

    def __getattr__(self, name: str) -> Any:
        # Only reached for names that are not fields: knob reads
        # (request.impl, request.tile...) answer from the config.
        if name in SERVE_KNOBS:
            return getattr(self.config, name)
        raise AttributeError(name)

    def replace(self, **changes: Any) -> "SolveRequest":
        """A copy with serving fields and/or solve knobs changed
        (re-validated like a fresh request)."""
        current = {
            f.name: getattr(self, f.name)
            for f in fields(self) if f.name != "config"
        }
        return SolveRequest(**{**current, **self.config.knobs(SERVE), **changes})

    # -- identity --------------------------------------------------------

    def resolved(self) -> RunConfig:
        """The config the run will actually use: per-impl knobs
        settled and the model-default tile filled in, so that an
        explicit request for the default tile hashes identically."""
        return self.config.resolved(self.problem, self.machine)

    def signature(self) -> str:
        """Content key of this solve: equal signatures guarantee
        bit-identical solution grids.  Only the ``ANSWER`` knobs that
        apply to the implementation enter (schedule knobs -- policy,
        jobs, backend -- are deliberately excluded; the conformance
        suite proves they cannot change the answer)."""
        from ..core.signature import solve_signature

        params = {
            k: v for k, v in self.resolved().knobs(SERVE, ANSWER).items()
            if v is not None and applies(k, self.config.impl)
        }
        impl = params.pop("impl")
        return solve_signature(self.problem, self.machine, impl, **params)


# -- outcomes ------------------------------------------------------------


@dataclass
class SolveOutcome:
    """Reduced result of one served solve: the grid plus the report
    scalars, safe to pickle across the pool's pipes and to persist in
    the result cache."""

    signature: str
    impl: str
    elapsed: float
    gflops: float
    messages: int
    message_bytes: int
    params: dict[str, Any]
    grid: np.ndarray | None = None
    tenant: str = "default"
    #: Served straight from the result cache (no tasks executed).
    cached: bool = False
    #: Executed by a pool worker that had already run a request (its
    #: process state -- imports, allocator, a forked child -- was warm).
    warm: bool = False
    #: Resumed from a checkpoint left by a failed earlier attempt.
    recovered: bool = False
    #: How many retries the job consumed before this outcome.
    retries: int = 0
    #: Faults the chaos plan fired across the job's attempts.
    faults_injected: int = 0
    #: Seconds the job spent in the service's queue before dispatch
    #: (a dispatched solve computes at once), summed across retry
    #: re-queues (0.0 for cache hits and direct execution).
    queue_wait_s: float = 0.0
    #: Lifecycle trace id of the serving request (None outside the
    #: service, or with lifecycle tracing disabled).
    trace_id: str | None = None
    #: Execution-level :class:`~repro.runtime.trace.Trace`, captured
    #: only when the service runs with ``trace_requests`` -- stripped
    #: before the outcome enters the result cache.
    trace: Any = None

    def with_tenant(self, tenant: str) -> "SolveOutcome":
        return replace(self, tenant=tenant)

    def to_doc(self) -> dict[str, Any]:
        """JSON-safe record *without* the grid (a result-cache entry
        file carries it in its header, the grid's raw bytes after)."""
        return {
            "signature": self.signature,
            "impl": self.impl,
            "elapsed": self.elapsed,
            "gflops": self.gflops,
            "messages": self.messages,
            "message_bytes": self.message_bytes,
            "params": {
                k: v for k, v in self.params.items()
                if isinstance(v, (bool, int, float, str)) or v is None
            },
            "recovered": self.recovered,
            "retries": self.retries,
            "faults_injected": self.faults_injected,
        }

    @classmethod
    def from_doc(cls, doc: dict, grid: np.ndarray | None) -> "SolveOutcome":
        return cls(
            signature=str(doc["signature"]),
            impl=str(doc["impl"]),
            elapsed=float(doc["elapsed"]),
            gflops=float(doc["gflops"]),
            messages=int(doc["messages"]),
            message_bytes=int(doc["message_bytes"]),
            params=dict(doc.get("params", {})),
            grid=grid,
            recovered=bool(doc.get("recovered", False)),
            retries=int(doc.get("retries", 0)),
            faults_injected=int(doc.get("faults_injected", 0)),
        )


def outcome_from_result(
    result,
    signature: str,
    tenant: str = "default",
    warm: bool = False,
    trace_id: str | None = None,
    keep_trace: bool = False,
) -> SolveOutcome:
    """Reduce a :class:`~repro.core.report.RunResult` to the
    serving-layer outcome (``keep_trace`` carries the execution-level
    trace along for the combined timeline)."""
    return SolveOutcome(
        signature=signature,
        impl=result.impl,
        elapsed=result.elapsed,
        gflops=result.gflops,
        messages=result.messages,
        message_bytes=result.message_bytes,
        params=dict(result.params),
        grid=result.grid,
        tenant=tenant,
        warm=warm,
        trace_id=trace_id,
        trace=result.trace if keep_trace else None,
    )


__all__ = [
    "DeadlineExpired",
    "JobSkipped",
    "QueueFullError",
    "ServeError",
    "ServiceClosed",
    "SolveOutcome",
    "SolveRequest",
    "WorkerDied",
    "outcome_from_result",
]
