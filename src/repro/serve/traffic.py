"""Canned multi-tenant traffic against a temporary service.

``repro serve``, ``slo`` and ``stats --section serve`` all exercise a live :class:`~repro.serve.service.SolverService`
the same way: a private temporary directory for its cache and chaos
state, a few variants of one problem submitted by several tenants in
two waves, and optionally one forced terminal failure.  This is that
scaffolding, callable without ``argparse``; the commands only map
flags onto it and print.
"""

from __future__ import annotations

import tempfile
from contextlib import contextmanager
from dataclasses import replace
from typing import Iterator

from ..stencil.problem import JacobiProblem
from .client import SolverClient
from .request import ServeError, SolveRequest
from .service import ServiceConfig, SolverService


def format_tally(tally: dict[str, int]) -> str:
    return (f"outcomes: {tally['ok']} solved, {tally['cached']} cached, "
            f"{tally['rejected']} rejected, {tally['failed']} failed")


class CannedSession:
    """A running temporary service plus the traffic that drives it
    (built by :func:`canned_session`)."""

    def __init__(self, service: SolverService, problem: JacobiProblem,
                 knobs: dict, variants: int) -> None:
        self.service = service
        self.knobs = knobs
        self.problems = [
            replace(problem, iterations=problem.iterations + k)
            for k in range(variants)
        ]
        # A fresh problem shape: the solve signature ignores the chaos
        # plan (faults cannot change the answer), so reusing a traffic
        # problem would hit the result cache and never execute -- much
        # less fail.
        self._fault_problem = replace(
            problem, iterations=problem.iterations + 17
        )

    def traffic(self, tenants: int, per_tenant: int,
                deadline_s: float | None = None,
                timeout: float = 300.0) -> dict[str, int]:
        """Each tenant submits its share in two waves over the same
        problem variants, so the second wave is served from the result
        cache.  Returns outcome tallies."""
        clients = [
            SolverClient(self.service, tenant=f"tenant-{chr(ord('a') + i)}",
                         deadline_s=deadline_s)
            for i in range(tenants)
        ]
        tally = {"ok": 0, "cached": 0, "rejected": 0, "failed": 0}
        first = (per_tenant + 1) // 2
        for count in (first, per_tenant - first):
            futures = []
            for client in clients:
                for k in range(count):
                    problem = self.problems[k % len(self.problems)]
                    try:
                        futures.append(client.submit(problem, **self.knobs))
                    except ServeError:
                        tally["rejected"] += 1
            for future in futures:
                try:
                    outcome = future.result(timeout)
                except ServeError:
                    tally["failed"] += 1
                else:
                    tally["cached" if outcome.cached else "ok"] += 1
        return tally

    def force_fault(self, plan: str, timeout: float = 300.0) -> ServeError | None:
        """Submit one zero-retry request under chaos ``plan``.
        The point is the terminal failure -- it trips the flight
        recorder and burns the tenant's error budget -- so the error is
        returned, not raised; ``None`` means the request survived."""
        request = SolveRequest(self._fault_problem, tenant="chaos",
                               chaos_plan=plan, retries=0, **self.knobs)
        try:
            self.service.submit(request).result(timeout)
        except ServeError as exc:
            return exc
        return None


@contextmanager
def canned_session(problem: JacobiProblem, knobs: dict, variants: int = 2,
                   **service) -> Iterator[CannedSession]:
    """A temporary :class:`SolverService` for canned traffic.

    ``problem`` is varied ``variants`` times (one more iteration each);
    ``knobs`` are the request keywords every submission shares
    (``machine=`` plus :class:`~repro.core.config.RunConfig` ``SERVE``
    knobs); ``service`` overrides :class:`ServiceConfig` fields.  The
    result cache and the chaos checkpoint/fault state default to a
    directory that lives exactly as long as the session: fault state is
    per-workdir, so a shared default would let a previous invocation's
    already-fired fault turn :meth:`CannedSession.force_fault` into a
    clean recovery.
    """
    with tempfile.TemporaryDirectory(prefix="repro-serve-") as tmp:
        config = ServiceConfig(**{
            "cache": tmp, "checkpoint_dir": f"{tmp}/chaos", **service,
        })
        with SolverService(config) as svc:
            yield CannedSession(svc, problem, knobs, variants)


__all__ = ["CannedSession", "canned_session", "format_tally"]
