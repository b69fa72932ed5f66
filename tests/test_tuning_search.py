"""Successive-halving search: budget accounting, determinism,
failure containment and the cache fast path."""

import gc
import multiprocessing
import threading
import time

import pytest

from repro.exec import ProcessExecutor, ThreadedExecutor, backends, fork_available
from repro.exec.procs import JOIN_GRACE
from repro.machine.machine import nacl
from repro.stencil.problem import JacobiProblem
from repro.tuning import SearchSpace, TuningCache, search, tune
from repro.tuning.search import Candidate, _evaluate, _fidelity_ladder

from .conftest import join_all


PROBLEM = JacobiProblem(n=96, iterations=4)
MACHINE = nacl(4)


def small_tune(**kwargs):
    kwargs.setdefault("impl", "ca-parsec")
    kwargs.setdefault("machine", MACHINE)
    kwargs.setdefault("cache", False)
    return tune(PROBLEM, **kwargs)


def test_budget_is_a_hard_ceiling():
    for budget in (1, 3, 6, 24):
        result = small_tune(budget=budget)
        assert result.runs_used <= budget
        assert sum(n for _, n in result.rungs) == result.runs_used
        assert len(result.trials) == result.runs_used


def test_budget_zero_is_model_only():
    result = small_tune(budget=0)
    assert result.source == "model"
    assert result.runs_used == 0
    assert result.winner == result.predictions[0].candidate


def test_negative_budget_rejected():
    with pytest.raises(ValueError, match="budget"):
        small_tune(budget=-1)


def test_unknown_impl_and_backend_rejected():
    with pytest.raises(ValueError, match="PaRSEC"):
        small_tune(impl="petsc")
    with pytest.raises(ValueError, match="unknown backend"):
        small_tune(backend="quantum")


def test_determinism_same_seed_same_winner():
    a = small_tune(budget=8, seed=3)
    b = small_tune(budget=8, seed=3)
    assert a.winner == b.winner
    assert [t.candidate for t in a.trials] == [t.candidate for t in b.trials]
    assert a.rungs == b.rungs
    assert a.winner_gflops == b.winner_gflops


def test_fidelity_ladder_monotone():
    assert _fidelity_ladder(1) == [1]
    assert _fidelity_ladder(8) == [2, 4, 8]
    ladder = _fidelity_ladder(20)
    assert ladder == sorted(set(ladder)) and ladder[-1] == 20


def test_halving_doubles_fidelity_and_halves_pool():
    # base-parsec: no step axis, so the fidelity ladder is not floored
    # and the classic halving schedule is visible.
    result = small_tune(budget=12, impl="base-parsec")
    fidelities = [fid for fid, n in result.rungs if n]
    assert fidelities == sorted(fidelities)
    assert fidelities[-1] == PROBLEM.iterations
    pools = [n for _, n in result.rungs if n]
    assert pools == sorted(pools, reverse=True)


def test_ca_fidelity_floored_at_pool_max_step():
    # Every rung must run at least as many iterations as the largest
    # step in the pool, or step sizes cannot be told apart.
    result = small_tune(budget=12)
    max_step = max(t.candidate.steps for t in result.trials)
    assert all(fid >= min(PROBLEM.iterations, max_step)
               for fid, _ in result.rungs)


def test_memoised_rerun_costs_no_budget():
    # At full fidelity the halving loop revisits survivors; the
    # deterministic simulator must not be charged twice for them.
    result = small_tune(budget=24)
    keys = [(t.candidate, t.fidelity) for t in result.trials]
    assert len(keys) == len(set(keys))


def test_failure_containment(monkeypatch):
    """One exploding configuration becomes an 'error' trial; the search
    still returns a winner from the survivors."""
    real = search.run

    def explode(problem, **kwargs):
        if kwargs.get("tile") == 24:
            raise RuntimeError("kaboom")
        return real(problem, **kwargs)

    monkeypatch.setattr(search, "run", explode)
    space = SearchSpace(tiles=(12, 24), steps=(1, 2))
    result = small_tune(budget=8, space=space)
    errors = [t for t in result.trials if t.status == "error"]
    assert errors and all("kaboom" in t.detail for t in errors)
    assert result.winner.tile == 12
    # Failed trials still count against the budget.
    assert result.runs_used == len(result.trials)


def test_timeout_containment(monkeypatch):
    """A measured run that hangs becomes a 'timeout' trial instead of
    hanging the session.  The simulator is never run under a timeout."""
    real = search.run

    def slow(problem, backend="sim", **kwargs):
        if backend == "threads" and kwargs.get("tile") == 24:
            time.sleep(0.6)
        return real(problem, backend=backend, **kwargs)

    monkeypatch.setattr(search, "run", slow)
    space = SearchSpace(tiles=(12, 24), steps=(1,))
    # Late in a full suite a full garbage collection pauses this process
    # for 90-150 ms; one landing inside the fast candidate's 0.15 s would
    # time it out too.  Collect now, so none is due during the test.
    gc.collect()
    result = small_tune(budget=6, space=space, backend="threads",
                        timeout=0.15)
    timeouts = [t for t in result.trials if t.status == "timeout"]
    assert timeouts and all(t.backend == "threads" for t in timeouts)
    assert result.winner.tile == 12


class Parked:
    """``init`` whose first evaluation -- on a worker thread or in a
    forked node -- parks until ``release`` is set: a kernel that blocks."""

    def __init__(self) -> None:
        ctx = multiprocessing.get_context("fork")
        self.entered, self.release = ctx.Event(), ctx.Event()

    def __call__(self, rows, cols):
        if not self.entered.is_set():
            self.entered.set()
            self.release.wait(60)
        return 0.0 * rows


@pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
@pytest.mark.parametrize("backend, executor", [
    ("threads", ThreadedExecutor), ("processes", ProcessExecutor)])
def test_timed_out_candidate_is_cancelled_not_abandoned(monkeypatch, backend,
                                                        executor):
    """A measured run that outlives its timeout is told to stop through
    its executor's public ``cancel()``; once its blocked kernel returns
    nothing of it is left running under the next candidate."""
    cancelled = []
    cancel = executor.cancel

    def recording_cancel(self):
        cancelled.append(cancel(self))
        return cancelled[-1]

    monkeypatch.setattr(executor, "cancel", recording_cancel)
    parked = Parked()
    problem = JacobiProblem(n=24, iterations=4, init=parked)
    trial = _evaluate(problem, "base-parsec", nacl(2), Candidate(tile=6),
                      4, backend, 2.0, 1, None)
    assert trial.status == "timeout"
    assert parked.entered.is_set()  # it timed out mid-run, not before it
    assert cancelled and cancelled[-1] is True
    parked.release.set()
    assert join_all(multiprocessing.active_children(), JOIN_GRACE) == []
    assert join_all((t for t in threading.enumerate()
                     if t.name.startswith(("repro-exec-", "repro-procs-"))),
                    JOIN_GRACE) == []


def test_empty_space_raises():
    space = SearchSpace(tiles=(96,))  # exceeds the 48-cell node block
    with pytest.raises(ValueError, match="empty after constraint pruning"):
        small_tune(budget=4, space=space)


def test_backend_unavailable_falls_back_to_model(monkeypatch):
    monkeypatch.setattr(backends, "backend_available", lambda name: False)
    result = small_tune(budget=8, backend="processes")
    assert result.source == "model"
    assert result.runs_used == 0


def test_cache_roundtrip(tmp_path):
    store = TuningCache(tmp_path / "t.json")
    cold = tune(PROBLEM, machine=MACHINE, budget=6, cache=store, seed=1)
    assert cold.source == "search" and cold.runs_used > 0
    warm = tune(PROBLEM, machine=MACHINE, budget=6, cache=store, seed=1)
    assert warm.source == "cache"
    assert warm.runs_used == 0
    assert warm.winner == cold.winner
    forced = tune(PROBLEM, machine=MACHINE, budget=6, cache=store, seed=1,
                  force=True)
    assert forced.source == "search" and forced.runs_used > 0


def test_run_kwargs_fold_into_cache_key(tmp_path):
    store = TuningCache(tmp_path / "t.json")
    plain = tune(PROBLEM, machine=MACHINE, budget=4, cache=store)
    adjusted = tune(PROBLEM, machine=MACHINE, budget=4, cache=store,
                    run_kwargs={"ratio": 0.2})
    # The adjusted search did not hit the plain entry.
    assert adjusted.source == "search"
    assert plain.source == "search"
    assert len(store.entries()) == 2


def test_measured_refinement_uses_real_backend():
    result = small_tune(budget=9, backend="threads")
    assert result.measured_runs > 0
    assert result.measured_runs < result.runs_used  # sim screened first
    measured = [t for t in result.trials if t.backend == "threads"]
    assert all(t.fidelity == PROBLEM.iterations for t in measured)


def test_records_share_sweep_export_path(tmp_path):
    result = small_tune(budget=4)
    path = tmp_path / "trials.csv"
    text = result.to_csv(str(path))
    assert path.read_bytes().decode() == text
    header = text.splitlines()[0].split(",")
    assert {"tile", "steps", "gflops", "status", "predicted_gflops"} <= set(header)
    assert len(text.splitlines()) == result.runs_used + 1
