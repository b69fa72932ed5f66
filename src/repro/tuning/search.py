"""Successive-halving refinement of the model's shortlist.

The tuner spends a fixed *budget* of actual runs:

1. the model (:mod:`repro.tuning.model`) ranks every valid candidate
   for free and a shortlist is formed -- mostly the model's favourites
   plus a seeded sample of the rest, so a miscalibrated model cannot
   hide the true optimum forever;
2. a **wide pass** evaluates the shortlist with the discrete-event
   simulator at reduced fidelity (fewer iterations), halving the pool
   at each rung while doubling fidelity -- the classic successive
   halving schedule;
3. an optional **narrow pass** re-measures the finalists on a real
   backend (``threads`` / ``processes``) through the same ``run()``
   call, with a per-candidate timeout and
   failure containment so one bad configuration cannot kill the
   session.

Winners are persisted through :mod:`repro.tuning.cache`; a warm cache
answers without any runs at all.
"""

from __future__ import annotations

import math
import random
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor, wait
from concurrent.futures import TimeoutError as FutureTimeout
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Sequence

from ..analysis import csvio
from ..core.config import applies
from ..core.runner import run
from ..exec import backends
from ..machine.machine import MachineSpec, nacl
from ..runtime.report import RunCancelled
from ..stencil.problem import JacobiProblem
from . import model
from .cache import TuningCache, cache_key
from .space import Candidate, SearchSpace

#: How the winner was decided.
SOURCES = ("cache", "search", "model")


@dataclass(frozen=True)
class Trial:
    """One budgeted evaluation of one candidate."""

    candidate: Candidate
    backend: str
    fidelity: int  # iterations actually run
    gflops: float | None
    elapsed: float | None
    status: str  # "ok" | "error" | "timeout"
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def as_record(self) -> dict:
        return {
            "tile": self.candidate.tile,
            "steps": self.candidate.steps,
            "policy": self.candidate.policy,
            "overlap": self.candidate.overlap,
            "boundary_priority": self.candidate.boundary_priority,
            "backend": self.backend,
            "fidelity": self.fidelity,
            "gflops": self.gflops,
            "elapsed_s": self.elapsed,
            "status": self.status,
            "detail": self.detail or None,
        }


@dataclass
class TuningResult:
    """Outcome of one :func:`tune` call."""

    impl: str
    backend: str
    machine: MachineSpec
    problem: JacobiProblem
    budget: int
    seed: int
    winner: Candidate
    winner_gflops: float
    source: str  # one of SOURCES
    predictions: list[model.Prediction] = field(default_factory=list)
    trials: list[Trial] = field(default_factory=list)
    rungs: list[tuple[int, int]] = field(default_factory=list)  # (fidelity, evals)
    cache_entry: dict | None = None

    @property
    def runs_used(self) -> int:
        """Budget actually spent (every trial, successful or not)."""
        return len(self.trials)

    @property
    def measured_runs(self) -> int:
        """Trials that executed on a real (non-sim) backend."""
        return sum(1 for t in self.trials if t.backend != "sim")

    def records(self) -> list[dict]:
        """Flat per-trial records, model predictions attached."""
        predicted = {p.candidate: p.gflops for p in self.predictions}
        out = []
        for trial in self.trials:
            rec = trial.as_record()
            rec["predicted_gflops"] = predicted.get(trial.candidate)
            rec["impl"] = self.impl
            rec["machine"] = self.machine.name
            rec["nodes"] = self.machine.nodes
            out.append(rec)
        return out

    def to_csv(self, path: str) -> str:
        """Write :meth:`records` to ``path`` as CSV; returns the text."""
        return csvio.write_csv(self.records(), path)


def _fidelity_ladder(full: int) -> list[int]:
    """Reduced iteration counts, quartered-then-doubling up to full."""
    full = max(1, full)
    ladder = [full]
    fid = full
    while fid > max(1, full // 4):
        fid = max(1, full // 4) if fid // 2 < max(1, full // 4) else fid // 2
        ladder.append(fid)
    return sorted(set(ladder))


def _evaluate(
    problem: JacobiProblem,
    impl: str,
    machine: MachineSpec,
    candidate: Candidate,
    fidelity: int,
    backend: str,
    timeout: float | None,
    jobs: int | None,
    run_kwargs: dict | None,
) -> Trial:
    """Run one candidate with full failure containment.

    Exceptions become ``status="error"`` trials; a measured run
    exceeding ``timeout`` seconds becomes ``status="timeout"`` and is
    cancelled -- its worker threads, or forked node processes, must not
    run on underneath the next candidate's measurement (the simulator
    is never run under a timeout: it is deterministic and cheap).
    """
    problem = replace(problem, iterations=fidelity)
    config = dict(run_kwargs or {})
    config.update(candidate.run_kwargs(impl))
    config["impl"] = impl
    common: dict[str, Any] = {"mode": "simulate", "backend": backend}
    if backend in backends.MEASURED_BACKENDS and jobs is not None:
        common["jobs"] = jobs

    live: list = []  # the candidate's executor, once run() has built it
    timed_out = threading.Event()

    def capture(executor) -> None:
        if timed_out.is_set():  # too late to be worth starting
            raise RunCancelled("candidate timed out before its run started")
        live.append(executor)

    def work():
        return run(problem, machine=machine, on_executor=capture,
                   **common, **config)

    try:
        if timeout is None or backend == "sim":
            result = work()
        else:
            pool = ThreadPoolExecutor(max_workers=1)
            future = pool.submit(work)
            try:
                result = future.result(timeout)
            except FutureTimeout:
                timed_out.set()
                # An executor that is still starting answers False:
                # ask until it takes the cancel (or the run is over).
                while live and not future.done() and not live[0].cancel():
                    wait([future], timeout=0.001)
                raise
            finally:
                pool.shutdown(wait=False, cancel_futures=True)
    except FutureTimeout:
        return Trial(candidate, backend, fidelity, None, None, "timeout",
                     f"exceeded {timeout:.3g}s")
    except Exception as exc:  # noqa: BLE001 - containment is the point
        return Trial(candidate, backend, fidelity, None, None, "error",
                     f"{type(exc).__name__}: {exc}")
    return Trial(candidate, backend, fidelity, float(result.gflops),
                 float(result.elapsed), "ok")


def _shortlist(
    predictions: list[model.Prediction], budget: int, seed: int
) -> list[Candidate]:
    """Mostly the model's favourites, plus a seeded exploration sample
    from the rest of the ranking (the model is a guide, not an
    oracle)."""
    pool_size = max(2, min(len(predictions), budget // 2 or 1))
    n_top = max(1, math.ceil(pool_size * 2 / 3))
    top = [p.candidate for p in predictions[:n_top]]
    rest = [p.candidate for p in predictions[n_top:]]
    n_explore = min(len(rest), pool_size - len(top))
    explore = random.Random(seed).sample(rest, n_explore) if n_explore else []
    return top + sorted(explore)


def _open_cache(
    cache: TuningCache | str | Path | bool | None,
) -> TuningCache | None:
    """``False`` disables persistence; a :class:`TuningCache` is used as
    is; a path (or ``None``: the default location) opens that store."""
    if cache is False:
        return None
    return cache if isinstance(cache, TuningCache) else TuningCache(cache)


def _lookup(store: TuningCache, metrics, *key) -> dict | None:
    """``store.get(*key)``, counted as a tuning-cache hit or miss."""
    entry = store.get(*key)
    if metrics is not None:
        name = ("tuning_cache_hits_total" if entry is not None
                else "tuning_cache_misses_total")
        metrics.counter(name, help="tuning-cache lookups by outcome").inc()
    return entry


def tune(
    problem: JacobiProblem,
    impl: str = "ca-parsec",
    machine: MachineSpec | None = None,
    backend: str = "sim",
    budget: int = 24,
    space: SearchSpace | None = None,
    cache: TuningCache | str | Path | bool | None = None,
    seed: int = 0,
    timeout: float | None = None,
    jobs: int | None = None,
    force: bool = False,
    run_kwargs: dict | None = None,
    metrics=None,
) -> TuningResult:
    """Find the best (tile, steps, policy, ...) within ``budget`` runs.

    ``backend`` selects what refines the shortlist: ``"sim"`` keeps
    everything in the discrete-event model (fast, deterministic);
    ``"threads"``/``"processes"`` re-measure the finalists on this
    host.  ``cache`` is a :class:`TuningCache`, a path, ``None`` for
    the default store or ``False`` to disable persistence; a warm
    cache returns immediately with zero runs unless ``force`` is set.
    ``run_kwargs`` (e.g. ``{"ratio": 0.2}``) are forwarded to every
    evaluation and folded into the cache key.  ``metrics`` accepts a
    :class:`repro.obs.MetricRegistry`; the tuner then counts cache
    hits/misses and every budgeted trial by backend and status.
    """
    machine = machine or nacl(4)
    if not applies("tile", impl):
        raise ValueError(
            "autotuning applies to the PaRSEC implementations "
            f"('base-parsec', 'ca-parsec'), not {impl!r}"
        )
    if backend not in backends.BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; choices: {backends.BACKENDS}"
        )
    if budget < 0:
        raise ValueError(f"tuning budget cannot be negative, got {budget}")

    store = _open_cache(cache)
    extra = ",".join(f"{k}={v}" for k, v in sorted((run_kwargs or {}).items()))

    if store is not None and not force:
        entry = _lookup(store, metrics, machine, problem, backend, impl, extra)
        if entry is not None:
            return TuningResult(
                impl=impl, backend=backend, machine=machine, problem=problem,
                budget=budget, seed=seed,
                winner=store.candidate_of(entry),
                winner_gflops=float(entry.get("gflops", 0.0)),
                source="cache", cache_entry=entry,
            )

    space = space or SearchSpace.for_problem(problem, machine, impl)
    candidates = space.candidates(problem, machine, impl)
    if not candidates:
        pruned = space.pruned(problem, machine, impl)
        detail = f"; e.g. {pruned[0][1]}" if pruned else ""
        raise ValueError(
            "the search space is empty after constraint pruning" + detail
        )
    # The model ranks with the same kernel-adjustment ratio the runs
    # will use: shrinking the kernel shifts the balance toward
    # communication, which is exactly when larger CA steps pay off.
    ratio = float((run_kwargs or {}).get("ratio", 1.0))
    predictions = model.rank(problem, machine, impl, candidates, ratio=ratio)

    if budget == 0 or not backends.backend_available(backend):
        return TuningResult(
            impl=impl, backend=backend, machine=machine, problem=problem,
            budget=budget, seed=seed,
            winner=predictions[0].candidate,
            winner_gflops=predictions[0].gflops,
            source="model", predictions=predictions,
        )

    model_rank = {p.candidate: i for i, p in enumerate(predictions)}
    trials: list[Trial] = []
    rungs: list[tuple[int, int]] = []
    best_score: dict[Candidate, float] = {}
    measured = backend in backends.MEASURED_BACKENDS
    # Measured refinement reserves ~1/3 of the budget for the finalists.
    screen_budget = budget * 2 // 3 if measured else budget
    budget_left = budget

    seen: dict[tuple[Candidate, int, str], Trial] = {}

    def spend(cands: Sequence[Candidate], fid: int, bend: str,
              limit: int) -> list[tuple[float, Candidate]]:
        nonlocal budget_left
        scored = []
        used = 0
        for cand in cands:
            # The simulator is deterministic, so a repeat of an
            # already-run (candidate, fidelity) costs no budget;
            # measured backends are noisy and always re-run.
            trial = seen.get((cand, fid, bend)) if bend == "sim" else None
            if trial is None:
                if budget_left <= 0 or used >= limit:
                    break
                trial = _evaluate(problem, impl, machine, cand, fid, bend,
                                  timeout, jobs, run_kwargs)
                seen[(cand, fid, bend)] = trial
                trials.append(trial)
                budget_left -= 1
                used += 1
                if metrics is not None:
                    metrics.counter(
                        "tuning_trials_total",
                        help="budgeted tuning evaluations by backend/status",
                    ).inc(backend=bend, status=trial.status)
            if trial.ok:
                best_score[cand] = trial.gflops
                scored.append((trial.gflops, cand))
        if used:
            rungs.append((fid, used))
        scored.sort(key=lambda gc: (-gc[0], model_rank.get(gc[1], 0), gc[1]))
        return scored

    pool = _shortlist(predictions, screen_budget, seed)
    ladder = _fidelity_ladder(problem.iterations)
    if applies("steps", impl):
        # Running fewer than s iterations truncates the CA step to the
        # iteration count, which makes different step sizes
        # indistinguishable; keep every rung deep enough to tell the
        # pool's candidates apart.
        min_fid = min(ladder[-1], max(c.steps for c in pool))
        ladder = sorted({max(f, min_fid) for f in ladder})
    full = ladder[-1]
    fid_idx = 0 if len(pool) > 1 else len(ladder) - 1
    while True:
        fid = ladder[fid_idx]
        scored = spend(pool, fid, "sim", limit=len(pool))
        survivors = [c for _, c in scored] or pool
        at_full = fid >= full
        if budget_left <= 0 or (at_full and len(survivors) <= 1):
            pool = survivors[:1] or pool[:1]
            break
        if at_full:
            pool = survivors[: max(1, len(survivors) // 2)]
            if len(pool) == 1:
                break
        else:
            pool = survivors[: max(1, math.ceil(len(survivors) / 2))]
            fid_idx = min(fid_idx + 1, len(ladder) - 1)

    winner = pool[0]
    winner_gflops = best_score.get(winner, predictions[0].gflops)

    if measured and budget_left > 0:
        # Narrow pass: the sim-ranked finalists, re-measured for real.
        ranked = sorted(
            (c for c in best_score),
            key=lambda c: (-best_score[c], model_rank.get(c, 0), c),
        ) or [winner]
        finalists = ranked[: max(2, budget_left)]
        scored = spend(finalists, full, backend, limit=budget_left)
        if scored:
            winner_gflops, winner = scored[0]

    result = TuningResult(
        impl=impl, backend=backend, machine=machine, problem=problem,
        budget=budget, seed=seed, winner=winner,
        winner_gflops=winner_gflops, source="search",
        predictions=predictions, trials=trials, rungs=rungs,
    )
    if store is not None:
        result.cache_entry = store.put(
            machine, problem, backend, impl, winner, extra,
            gflops=winner_gflops, runs_used=result.runs_used, budget=budget,
            seed=seed,
        )
    return result


def resolve_auto(
    problem: JacobiProblem,
    impl: str,
    machine: MachineSpec,
    tile: int | str | None = "auto",
    steps: int | str = "auto",
    budget: int = 0,
    cache: TuningCache | str | Path | bool | None = None,
    jobs: int | None = None,
    metrics=None,
) -> tuple[int, int, dict]:
    """Turn ``tile="auto"`` / ``steps="auto"`` into concrete values.

    Resolution order: cached winner (zero runs), then a budgeted
    search, then -- when the budget is 0 or the requested refinement
    backend is unavailable on this host -- a model-only pick with a
    ``UserWarning`` naming the reason.  Returns ``(tile, steps,
    info)`` where ``info`` records the source and any tuning result.
    """
    # An in-run resolution always searches in the simulator (seed 0);
    # measuring finalists on this host is ``repro tune``'s job.
    backend = "sim"
    fixed_tile = tile if isinstance(tile, int) else None
    # Only the CA implementation has a step knob; a fixed steps value
    # (e.g. the runner's default 15) is meaningless for the others and
    # must not constrain the space.
    fixed_steps = (
        steps if isinstance(steps, int) and applies("steps", impl) else None
    )
    store = _open_cache(cache)

    if store is not None:
        entry = _lookup(store, metrics, machine, problem, backend, impl)
        if entry is not None:
            cand = store.candidate_of(entry)
            if (fixed_tile in (None, cand.tile)
                    and (fixed_steps in (None, cand.steps))):
                return cand.tile, cand.steps, {
                    "source": "cache", "entry": entry,
                    "key": cache_key(machine, problem, backend, impl),
                }

    space = SearchSpace.for_problem(problem, machine, impl).narrowed(
        tile=fixed_tile, steps=fixed_steps
    )
    available = backends.backend_available(backend)
    if budget > 0 and available:
        # A pinned axis changes what "best" means, so constrained
        # searches neither consult nor overwrite the unconstrained
        # cache entry for this key.
        pinned = fixed_tile is not None or fixed_steps is not None
        result = tune(
            problem, impl=impl, machine=machine, backend=backend,
            budget=budget, space=space,
            cache=False if (pinned or store is None) else store,
            jobs=jobs, metrics=metrics,
        )
        return result.winner.tile, result.winner.steps, {
            "source": result.source, "result": result,
        }

    reason = (
        f"the tuning budget is {budget}" if budget <= 0
        else f"backend {backend!r} is unavailable on this host"
    )
    warnings.warn(
        f"autotuning fell back to the model-only pick because {reason}; "
        "run `python -m repro.cli tune` or pass tune=True to search for "
        "(and cache) a measured optimum",
        UserWarning,
        stacklevel=3,
    )
    candidates = space.candidates(problem, machine, impl)
    if not candidates:
        raise ValueError("the search space is empty after constraint pruning")
    top = model.rank(problem, machine, impl, candidates)[0]
    return top.candidate.tile, top.candidate.steps, {
        "source": "model", "prediction": top,
    }
