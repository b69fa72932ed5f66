"""Thin in-process client of a :class:`SolverService`.

The client binds tenant identity (plus default priority/deadline) so
call sites submit problems, not plumbing::

    svc = SolverService(ServiceConfig(workers=2)).start()
    alice = SolverClient(svc, tenant="alice", deadline_s=30.0)
    fut = alice.submit(problem, impl="ca-parsec", tile=12)
    outcome = fut.result()          # SolveOutcome: grid + report scalars
    grids = [f.result().grid for f in alice.map(problems)]

Futures are plain :class:`concurrent.futures.Future` objects, so the
standard ``as_completed`` / ``wait`` combinators apply.
"""

from __future__ import annotations

from concurrent.futures import Future

from .request import SolveOutcome, SolveRequest
from .service import SolverService


class SolverClient:
    """One tenant's handle on a running service."""

    def __init__(
        self,
        service: SolverService,
        tenant: str = "default",
        priority: int = 0,
        deadline_s: float | None = None,
    ) -> None:
        self.service = service
        self.tenant = tenant
        self.priority = priority
        self.deadline_s = deadline_s

    def _request(self, problem=None, request=None, **knobs) -> SolveRequest:
        defaults = {
            "tenant": self.tenant,
            "priority": self.priority,
            "deadline_s": self.deadline_s,
        }
        if request is not None:
            merged = {
                k: v for k, v in defaults.items()
                if k not in knobs and getattr(request, k) in (None, "default", 0)
            }
            return request.replace(**merged, **knobs)
        if problem is None:
            raise TypeError("submit() needs a problem or a request")
        return SolveRequest(problem=problem, **{**defaults, **knobs})

    def submit(self, problem=None, *, request=None, **knobs) -> Future:
        """Admit one solve; returns the future of its
        :class:`~repro.serve.request.SolveOutcome`.  Raises the
        service's typed admission errors synchronously."""
        return self.service.submit(self._request(problem, request, **knobs))

    def solve(self, problem=None, *, request=None, timeout=None, **knobs) -> SolveOutcome:
        """Blocking convenience: submit and wait."""
        return self.submit(problem, request=request, **knobs).result(timeout)

    def map(self, problems, **knobs) -> list[Future]:
        """Submit many problems with shared knobs (order preserved)."""
        return [self.submit(p, **knobs) for p in problems]


__all__ = ["SolverClient"]
