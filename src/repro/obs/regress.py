"""Perf-regression gate: compare a fresh run against a recorded baseline.

The repo accumulates ``BENCH_*.json`` trajectory files, but until now
they were write-only.  This module closes the loop:

* :func:`compare` checks flat ``{metric: value}`` dicts against a
  baseline with per-direction tolerances -- *lower-better* metrics
  (makespan, messages, bytes, runs used) may not grow by more than the
  tolerance, *higher-better* metrics (GFLOP/s, occupancy, cache
  hit-rate) may not shrink.  Improvements never fail.  Keys with no
  recognisable direction (tile sizes, budgets, timestamps) are
  informational and skipped.
* :func:`load_baseline` reads either an ``obs-baseline`` document
  written by ``repro stats --write-baseline`` or any ``BENCH_*.json``
  trajectory file (nested sections are flattened to dotted keys).
* :func:`measure_bench_tuning` re-runs the deterministic tuning
  benches behind ``BENCH_tuning.json`` so the gate can re-measure the
  recorded sections; a section whose recorded problem size does not
  match the current scaling mode is skipped, not failed.

The CLI face is ``repro stats --check FILE`` (exit 1 on regression),
wired as the opt-in ``regression-gate`` CI job.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

__all__ = [
    "BASELINE_KIND",
    "Check",
    "RegressReport",
    "baseline_doc",
    "compare",
    "direction",
    "flatten",
    "load_baseline",
    "measure_bench_tuning",
    "metrics_from_result",
    "metrics_from_serve",
    "write_baseline",
]

BASELINE_KIND = "obs-baseline"

#: Substring hints, checked in order; first match wins.  ``None``
#: means "informational, never gated" (config knobs, timestamps).
_SKIP_HINTS = ("unix_time", "timestamp", "paper_range", "budget",
               "tile", "steps", "problem_n", "seed", "nodes", "jobs",
               "procs", "workers",
               # Admission rejects are the service *doing its job*
               # under overload, not a regression either way.
               "reject", "batch_size")
_LOWER_HINTS = ("elapsed", "makespan", "seconds", "latency", "messages",
                "bytes", "runs_used", "misses", "redundant", "comm_share",
                "cold_start", "expired", "burn")
_HIGHER_HINTS = ("gflops", "occupancy", "hit_rate", "hits", "speedup",
                 "efficiency", "bandwidth", "critpath_ratio",
                 "warm_start", "throughput")


def direction(name: str) -> str | None:
    """``"lower"`` / ``"higher"`` = which way is better; ``None`` =
    informational (not gated)."""
    low = name.lower()
    for hint in _SKIP_HINTS:
        if hint in low:
            return None
    for hint in _LOWER_HINTS:
        if hint in low:
            return "lower"
    for hint in _HIGHER_HINTS:
        if hint in low:
            return "higher"
    return None


def flatten(doc: Mapping[str, Any], prefix: str = "") -> dict[str, float]:
    """Numeric leaves of a nested mapping as ``a.b.c`` dotted keys."""
    out: dict[str, float] = {}
    for key, value in doc.items():
        name = f"{prefix}{key}"
        if isinstance(value, Mapping):
            out.update(flatten(value, prefix=f"{name}."))
        elif isinstance(value, bool):
            continue
        elif isinstance(value, (int, float)):
            out[name] = float(value)
    return out


@dataclass(frozen=True)
class Check:
    """One gated metric comparison."""

    name: str
    baseline: float
    measured: float
    direction: str  # "lower" | "higher"
    tolerance: float
    ok: bool

    @property
    def change(self) -> float:
        """Signed relative change vs the baseline (0.1 = +10%)."""
        if self.baseline == 0:
            return 0.0 if self.measured == 0 else float("inf")
        return self.measured / self.baseline - 1.0


@dataclass
class RegressReport:
    """Outcome of one :func:`compare` call."""

    checks: list[Check] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)  # no direction hint
    missing: list[str] = field(default_factory=list)  # gated but unmeasured

    @property
    def ok(self) -> bool:
        return all(c.ok for c in self.checks)

    @property
    def failures(self) -> list[Check]:
        return [c for c in self.checks if not c.ok]

    def format(self) -> str:
        lines = []
        for c in sorted(self.checks, key=lambda c: (c.ok, c.name)):
            mark = "ok  " if c.ok else "FAIL"
            change = ("+inf" if c.change == float("inf")
                      else f"{100 * c.change:+.1f}%")
            lines.append(
                f"{mark} {c.name}: {c.measured:.6g} vs baseline "
                f"{c.baseline:.6g} ({change}, {c.direction}-is-better, "
                f"tol {100 * c.tolerance:.0f}%)"
            )
        for name in self.missing:
            lines.append(f"warn {name}: in baseline but not measured")
        verdict = ("PASS" if self.ok else
                   f"REGRESSION in {len(self.failures)} metric(s)")
        lines.append(f"{verdict}: {sum(c.ok for c in self.checks)}"
                     f"/{len(self.checks)} gated metrics within tolerance")
        return "\n".join(lines)


def compare(
    baseline: Mapping[str, float],
    measured: Mapping[str, float],
    tolerance: float = 0.10,
    tolerances: Mapping[str, float] | None = None,
) -> RegressReport:
    """Gate ``measured`` against ``baseline``.

    Only keys present in *both* dicts and carrying a direction hint
    are gated; ``tolerances`` overrides the default ``tolerance`` per
    key (exact name match).  Baseline keys that are gated but absent
    from ``measured`` are reported as ``missing`` warnings -- absence
    is not a regression, it usually means the fresh run measured a
    narrower configuration.
    """
    if tolerance < 0:
        raise ValueError(f"tolerance cannot be negative, got {tolerance}")
    report = RegressReport()
    for name in sorted(baseline):
        base = baseline[name]
        sense = direction(name)
        if sense is None:
            report.skipped.append(name)
            continue
        if name not in measured:
            report.missing.append(name)
            continue
        value = measured[name]
        tol = (tolerances or {}).get(name, tolerance)
        if sense == "lower":
            ok = value <= base * (1.0 + tol)
        else:
            ok = value >= base * (1.0 - tol)
        report.checks.append(Check(
            name=name, baseline=base, measured=value,
            direction=sense, tolerance=tol, ok=ok,
        ))
    return report


def load_baseline(path: str | Path) -> dict[str, float]:
    """Flat gated-metrics dict from a baseline file.

    Accepts the ``obs-baseline`` documents written by
    :func:`write_baseline` (metrics live under ``"metrics"``) and raw
    ``BENCH_*.json`` trajectory files (the whole document flattens).
    """
    doc = json.loads(Path(path).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"{path}: baseline must be a JSON object")
    if doc.get("kind") == BASELINE_KIND:
        return flatten(doc.get("metrics", {}))
    return flatten(doc)


def metrics_from_result(result: Any) -> dict[str, float]:
    """The gated metrics of one :class:`~repro.core.report.RunResult`
    (plus tuner counters when its metrics snapshot carries them)."""
    out = {
        "makespan_s": float(result.elapsed),
        "gflops": float(result.gflops),
        "messages": float(result.messages),
        "message_bytes": float(result.message_bytes),
        "occupancy": float(result.occupancy()),
    }
    snapshot = getattr(result, "metrics", None)
    if snapshot is not None:
        hits = snapshot.counter("tuning_cache_hits_total")
        misses = snapshot.counter("tuning_cache_misses_total")
        if hits or misses:
            out["tuning_cache_hit_rate"] = hits / (hits + misses)
        wire = snapshot.counter("wire_bytes_total")
        if wire:
            out["wire_bytes"] = float(wire)
        # Causal gauges exist when the run was traced as well as
        # instrumented (see runner._publish_critpath); gate them so a
        # commit cannot silently push communication back onto the
        # critical path.
        if snapshot.gauge("critpath_seconds"):
            out["critpath_seconds"] = float(snapshot.gauge("critpath_seconds"))
            out["critpath_ratio"] = float(snapshot.gauge("critpath_ratio"))
            out["critpath_comm_share"] = float(
                snapshot.gauge("critpath_comm_share")
            )
    return out


def metrics_from_serve(snapshot: Any) -> dict[str, float]:
    """The gated serving metrics of a service's snapshot.

    Rates rather than raw counts, so baselines survive workload-size
    changes: cache hit-rate and warm-start rate gate *higher*-better,
    deadline expiries *lower*-better, admission rejects are recorded
    but neutral (a loaded service rejecting is correct behaviour).
    """
    out: dict[str, float] = {}
    hits = snapshot.counter("serve_cache_hits_total")
    misses = snapshot.counter("serve_cache_misses_total")
    if hits or misses:
        out["serve_cache_hit_rate"] = hits / (hits + misses)
    warm = snapshot.counter("serve_pool_warm_starts_total")
    cold = snapshot.counter("serve_pool_cold_starts_total")
    if warm or cold:
        out["serve_warm_start_rate"] = warm / (warm + cold)
    rejects = snapshot.counter("serve_admission_rejects_total")
    if rejects:
        out["serve_admission_rejects"] = float(rejects)
    expired = snapshot.counter("serve_deadline_expired_total")
    if expired:
        out["serve_deadline_expired"] = float(expired)
    # SLO aggregates (p95 latencies, error-budget burn) gate alongside
    # the serving rates whenever the snapshot carries lifecycle data.
    from .slo import slo_gate_metrics
    out.update(slo_gate_metrics(snapshot))
    return out


def baseline_doc(result: Any, note: str = "") -> dict:
    """A writable ``obs-baseline`` document for ``result``."""
    doc = {
        "schema": 1,
        "kind": BASELINE_KIND,
        "config": {
            "impl": result.impl,
            "machine": result.machine.name,
            "nodes": result.machine.nodes,
            "n": result.problem.shape[0],
            "iterations": result.problem.iterations,
            **{k: v for k, v in result.params.items()
               if isinstance(v, (int, float, str, bool))},
        },
        "metrics": metrics_from_result(result),
    }
    if note:
        doc["note"] = note
    return doc


def write_baseline(path: str | Path, doc: Mapping[str, Any]) -> None:
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def measure_bench_tuning(
    baseline: Mapping[str, float],
    sections: list[str] | None = None,
) -> tuple[dict[str, float], list[str]]:
    """Re-measure the ``BENCH_tuning.json`` sections deterministically.

    Returns ``(measured, skipped)``: dotted-key metrics matching the
    baseline's layout, plus the sections that could not be compared
    (unknown name, or recorded at a different problem scale than the
    current ``REPRO_FULL`` mode produces).  Only sections present in
    ``baseline`` (and in ``sections`` when given) are re-run.
    """
    from ..experiments import NACL, STAMPEDE2, fig6_tilesize
    from ..experiments.common import STEP_SIZES, full_mode
    from ..tuning import SearchSpace, tune

    wanted = {name.split(".", 1)[0] for name in baseline}
    if sections is not None:
        wanted &= set(sections)
    measured: dict[str, float] = {}
    skipped: list[str] = []

    def fig6(section: str, setup: Any) -> None:
        problem = setup.tuning_problem()
        recorded_n = baseline.get(f"{section}.problem_n")
        if recorded_n is not None and recorded_n != problem.shape[0]:
            skipped.append(
                f"{section} (recorded at n={recorded_n:.0f}, current "
                f"mode produces n={problem.shape[0]})"
            )
            return
        budget = int(baseline.get(f"{section}.budget", 24))
        tiles = (fig6_tilesize.FULL_TILES if full_mode()
                 else fig6_tilesize.SCALED_TILES)[setup.name]
        result = tune(
            problem, impl="base-parsec", machine=setup.machine(1),
            budget=budget, cache=False,
            space=SearchSpace(tiles=tiles, require_divisible=False),
        )
        measured[f"{section}.winner_gflops"] = result.winner_gflops
        measured[f"{section}.runs_used"] = float(result.runs_used)
        measured[f"{section}.winner_tile"] = float(result.winner.tile)

    def fig9(section: str) -> None:
        setup, ratio = NACL, 0.2
        budget = int(baseline.get(f"{section}.budget", 12))
        result = tune(
            setup.problem(), impl="ca-parsec", machine=setup.machine(16),
            budget=budget, cache=False, run_kwargs={"ratio": ratio},
            space=SearchSpace(tiles=(setup.tile,), steps=STEP_SIZES),
        )
        measured[f"{section}.winner_gflops"] = result.winner_gflops
        measured[f"{section}.runs_used"] = float(result.runs_used)
        measured[f"{section}.winner_steps"] = float(result.winner.steps)

    runners = {
        "fig6_nacl": lambda s: fig6(s, NACL),
        "fig6_stampede2": lambda s: fig6(s, STAMPEDE2),
        "fig9_nacl_16n_r02": fig9,
    }
    for section in sorted(wanted):
        runner = runners.get(section)
        if runner is None:
            skipped.append(f"{section} (no re-measurement recipe)")
            continue
        runner(section)
    return measured, skipped
