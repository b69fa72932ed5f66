"""``repro.serve``: a persistent stencil-solver service.

Instead of paying imports, worker spin-up (a fork, on the
``processes`` pool) and tear-down per ``run()`` call, a
:class:`SolverService` runs ``workers`` runner threads that each keep
one warm worker -- an in-process object or a persistent forked child
-- alive across jobs (each request still builds its own graph and
one-shot executor), solves identical queued requests once, admits work
through a bounded multi-tenant queue, and serves repeated requests
straight from a content-keyed result cache -- with every stage
instrumented through :mod:`repro.obs`.

Quick start::

    from repro.serve import ServiceConfig, SolverClient, SolverService

    with SolverService(ServiceConfig(workers=2)) as svc:
        client = SolverClient(svc, tenant="alice")
        outcome = client.solve(problem, impl="ca-parsec", tile=64)

See ``docs/serving.md`` for the architecture and the ops runbook.
"""

from .cache import ResultCache, default_cache_dir
from .client import SolverClient
from .pool import execute_request
from .queue import Job, JobQueue
from .request import (
    DeadlineExpired,
    JobSkipped,
    QueueFullError,
    ServeError,
    ServiceClosed,
    SolveOutcome,
    SolveRequest,
    WorkerDied,
    outcome_from_result,
)
from .service import ServiceConfig, SolverService

__all__ = [
    "DeadlineExpired",
    "Job",
    "JobQueue",
    "JobSkipped",
    "QueueFullError",
    "ResultCache",
    "ServeError",
    "ServiceClosed",
    "ServiceConfig",
    "SolveOutcome",
    "SolveRequest",
    "SolverClient",
    "SolverService",
    "WorkerDied",
    "default_cache_dir",
    "execute_request",
    "outcome_from_result",
]
