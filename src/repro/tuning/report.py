"""Tuning reports in the repository's table style.

Two views matter after a tuning session: the **leaderboard** (which
configurations survived, at what fidelity, and how fast they were) and
the **predicted-vs-measured deltas** (how far the analytic model was
from the runs that refined it -- the same closing-the-loop discipline
as :mod:`repro.exec.compare`).
"""

from __future__ import annotations

from ..analysis.tables import format_table
from .search import TuningResult


def leaderboard_rows(result: TuningResult, limit: int | None = None) -> list[tuple]:
    """Best configuration first; each candidate appears once with its
    highest-fidelity successful score."""
    best: dict = {}
    for trial in result.trials:
        if not trial.ok:
            continue
        prev = best.get(trial.candidate)
        if prev is None or trial.fidelity > prev.fidelity:
            best[trial.candidate] = trial
    predicted = {p.candidate: p.gflops for p in result.predictions}
    ranked = sorted(best.values(), key=lambda t: (-t.gflops, t.candidate))
    rows = []
    for rank, trial in enumerate(ranked[:limit], start=1):
        pred = predicted.get(trial.candidate)
        delta = (
            f"{100 * (trial.gflops - pred) / pred:+.1f}%" if pred else "-"
        )
        rows.append((
            rank, trial.candidate.tile, trial.candidate.steps,
            trial.candidate.policy, trial.backend, trial.fidelity,
            trial.gflops, pred if pred is not None else float("nan"), delta,
        ))
    return rows


LEADERBOARD_HEADERS = (
    "#", "tile", "s", "policy", "backend", "iters",
    "GFLOP/s", "predicted", "delta",
)


def failures_rows(result: TuningResult) -> list[tuple]:
    return [
        (t.candidate.label(), t.backend, t.status, t.detail)
        for t in result.trials if not t.ok
    ]


def format_tuning_report(result: TuningResult, limit: int = 12) -> str:
    """The full post-tuning printout: provenance, leaderboard, winner."""
    m = result.machine
    lines = [
        f"tuning {result.impl} on {m.name} x{m.nodes} "
        f"({result.problem.shape[0]}^2 x {result.problem.iterations} iters), "
        f"refinement backend {result.backend!r}",
        f"source: {result.source} -- {result.runs_used} of {result.budget} "
        f"budgeted runs used ({result.measured_runs} measured)",
    ]
    if result.rungs:
        sched = " -> ".join(f"{n}@{fid}it" for fid, n in result.rungs)
        lines.append(f"halving schedule: {sched}")
    rows = leaderboard_rows(result, limit)
    if rows:
        lines.append(format_table(LEADERBOARD_HEADERS, rows, title="leaderboard"))
    failures = failures_rows(result)
    if failures:
        lines.append(format_table(
            ("candidate", "backend", "status", "detail"), failures,
            title="contained failures",
        ))
    w = result.winner
    lines.append(
        f"best: tile={w.tile} steps={w.steps} policy={w.policy} "
        f"overlap={w.overlap} boundary_priority={w.boundary_priority} "
        f"({result.winner_gflops:.2f} GFLOP/s)"
    )
    return "\n".join(lines)


