"""The runner's front-door argument validation: every selector typo
must fail fast with the list of choices, before any graph is built."""

from __future__ import annotations

import pytest

from repro.core.runner import BACKENDS, IMPLEMENTATIONS, MODES, run
from repro.machine.machine import nacl
from repro.stencil.problem import JacobiProblem

PROBLEM = JacobiProblem(n=16, iterations=2)


def test_unknown_impl_lists_choices():
    with pytest.raises(ValueError) as err:
        run(PROBLEM, impl="parsec")  # plausible typo
    msg = str(err.value)
    assert "parsec" in msg
    for impl in IMPLEMENTATIONS:
        assert impl in msg


def test_unknown_mode_lists_choices():
    with pytest.raises(ValueError) as err:
        run(PROBLEM, impl="base-parsec", mode="exec")
    msg = str(err.value)
    assert "exec" in msg
    for mode in MODES:
        assert mode in msg


def test_unknown_policy_lists_choices():
    with pytest.raises(ValueError) as err:
        run(PROBLEM, impl="base-parsec", policy="random")
    msg = str(err.value)
    assert "random" in msg
    for policy in ("fifo", "lifo", "priority"):
        assert policy in msg


def test_unknown_backend_lists_choices():
    with pytest.raises(ValueError) as err:
        run(PROBLEM, impl="base-parsec", backend="mpi")  # plausible typo
    msg = str(err.value)
    assert "mpi" in msg
    for backend in BACKENDS:
        assert backend in msg


@pytest.mark.parametrize("procs", [0, -2])
def test_nonpositive_procs_rejected(procs):
    with pytest.raises(ValueError, match="procs"):
        run(PROBLEM, impl="base-parsec", backend="processes", procs=procs)


def test_procs_requires_processes_backend():
    with pytest.raises(ValueError, match="backend='processes'"):
        run(PROBLEM, impl="base-parsec", backend="threads", procs=2)
    with pytest.raises(ValueError, match="backend='processes'"):
        run(PROBLEM, impl="base-parsec", procs=2)  # sim backend


@pytest.mark.parametrize("jobs", [0, -3])
def test_nonpositive_jobs_rejected(jobs):
    with pytest.raises(ValueError, match="jobs"):
        run(PROBLEM, impl="base-parsec", backend="threads", jobs=jobs)


def test_validation_happens_before_graph_construction(monkeypatch):
    """A bad policy must not reach the (expensive) graph builders."""
    import repro.core.petsc_jacobi as petsc_mod
    import repro.core.runner as runner_mod

    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("graph construction reached with bad args")

    monkeypatch.setattr(runner_mod, "build_base_graph", explode)
    monkeypatch.setattr(runner_mod, "build_ca_graph", explode)
    # imported where the runner uses it, so a solve does not load it
    monkeypatch.setattr(petsc_mod, "build_petsc_graph", explode)
    for bad in (
        {"impl": "nope"},
        {"impl": "base-parsec", "mode": "nope"},
        {"impl": "base-parsec", "policy": "nope"},
        {"impl": "base-parsec", "backend": "nope"},
        {"impl": "base-parsec", "backend": "threads", "jobs": 0},
        {"impl": "base-parsec", "backend": "processes", "procs": 0},
        {"impl": "base-parsec", "backend": "threads", "procs": 2},
    ):
        with pytest.raises(ValueError):
            run(PROBLEM, machine=nacl(4), **bad)


@pytest.mark.parametrize("bad", [
    {"tile": 0}, {"tile": 2.5}, {"steps": 0}, {"ratio": 0.0}, {"ratio": -1.0},
    {"impl": "petsc", "ratio": 0.5},
])
def test_out_of_range_knobs_rejected(bad):
    with pytest.raises(ValueError):
        run(PROBLEM, machine=nacl(4), **{"impl": "ca-parsec", **bad})
    with pytest.raises(TypeError, match="no_such_knob"):
        run(PROBLEM, machine=nacl(4), no_such_knob=1)


@pytest.mark.parametrize("bad", [
    {"backend": "threads", "jobs": 0},
    {"backend": "threads", "procs": 2},
    {"backend": "processes", "procs": 0},
])
def test_counts_validated_before_any_tuning_run_is_spent(bad, monkeypatch):
    """``tile="auto"`` hands ``jobs`` to the tuner: a bad worker or
    process count must fail before that, not after the search."""
    import repro.tuning.search as search_mod

    def explode(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("tuner reached with invalid knobs")

    monkeypatch.setattr(search_mod, "resolve_auto", explode)
    with pytest.raises(ValueError):
        run(PROBLEM, machine=nacl(4), impl="ca-parsec", tile="auto",
            tune=True, **bad)


def test_valid_arguments_still_run():
    result = run(PROBLEM, impl="base-parsec", machine=nacl(1), tile=8,
                 policy="fifo", mode="simulate")
    assert result.elapsed > 0
