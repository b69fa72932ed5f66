"""Search-space construction and constraint pruning.

The tuner's contract is that configurations the decomposition forbids
are rejected *before* any run -- these tests pin both the individual
constraints and the end-to-end guarantee that :func:`repro.tuning.tune`
never hands an invalid candidate to the evaluator.
"""

import pytest

from repro.machine.machine import nacl
from repro.stencil.problem import JacobiProblem
from repro.tuning import SearchSpace, invalid_reason, tune
from repro.tuning.space import Candidate, block_extents
from repro.tuning import model
from repro.tuning import search as search_mod


PROBLEM = JacobiProblem(n=96, iterations=4)
MACHINE = nacl(4)


def test_block_extents():
    # 96x96 over a 2x2 process grid -> every node block is 48x48.
    assert block_extents(PROBLEM, MACHINE) == [48]


@pytest.mark.parametrize("candidate,fragment", [
    (Candidate(tile=0), "tile size must be >= 1"),
    (Candidate(tile=96), "exceeds the smallest node block"),
    (Candidate(tile=5), "does not divide the node blocks"),
    (Candidate(tile=8, steps=0), "step size must be >= 1"),
    (Candidate(tile=8, steps=12), "exceeds tile"),
    (Candidate(tile=8, policy="psychic"), "unknown policy"),
])
def test_invalid_reason_ca(candidate, fragment):
    reason = invalid_reason(candidate, PROBLEM, MACHINE, "ca-parsec")
    assert reason is not None and fragment in reason


def test_invalid_reason_steps_are_ca_only():
    reason = invalid_reason(Candidate(tile=8, steps=4), PROBLEM, MACHINE,
                            "base-parsec")
    assert reason is not None and "ca-parsec only" in reason
    assert invalid_reason(Candidate(tile=8, steps=4), PROBLEM, MACHINE,
                          "ca-parsec") is None


def test_non_divisible_allowed_when_relaxed():
    cand = Candidate(tile=5)
    assert invalid_reason(cand, PROBLEM, MACHINE, "ca-parsec",
                          require_divisible=False) is None


def test_for_problem_tiles_divide_blocks():
    space = SearchSpace.for_problem(PROBLEM, MACHINE, impl="ca-parsec")
    assert space.require_divisible
    assert all(48 % t == 0 for t in space.tiles)
    # Every generated candidate passes its own validity check.
    cands = space.candidates(PROBLEM, MACHINE, "ca-parsec")
    assert cands
    assert all(invalid_reason(c, PROBLEM, MACHINE, "ca-parsec") is None
               for c in cands)


def test_for_problem_caps_steps_at_iterations():
    space = SearchSpace.for_problem(PROBLEM, MACHINE, impl="ca-parsec")
    assert max(space.steps) <= PROBLEM.iterations
    deep = SearchSpace.for_problem(
        JacobiProblem(n=96, iterations=100), MACHINE, impl="ca-parsec"
    )
    assert max(deep.steps) > PROBLEM.iterations


def test_for_problem_base_has_single_step():
    space = SearchSpace.for_problem(PROBLEM, MACHINE, impl="base-parsec")
    assert space.steps == (1,)


def test_for_problem_ragged_grid_falls_back():
    # 101 is prime: the node blocks (51, 50) share no divisor >= 2, so
    # the space relaxes divisibility and still produces fitting tiles.
    ragged = JacobiProblem(n=101, iterations=3)
    space = SearchSpace.for_problem(ragged, MACHINE, impl="ca-parsec")
    assert not space.require_divisible
    extents = block_extents(ragged, MACHINE)
    assert space.tiles and all(t <= extents[0] for t in space.tiles)
    assert space.candidates(ragged, MACHINE, "ca-parsec")


def test_for_problem_wide_adds_scheduling_axes():
    narrow = SearchSpace.for_problem(PROBLEM, MACHINE)
    wide = SearchSpace.for_problem(PROBLEM, MACHINE, wide=True)
    assert narrow.policies == ("priority",)
    assert len(wide.policies) > 1
    assert set(wide.overlaps) == {False, True}
    # ... and nothing else: policy x overlap x boundary priority.
    assert wide.size == narrow.size * len(wide.policies) * 2 * 2


def test_narrowed_pins_axes():
    space = SearchSpace.for_problem(PROBLEM, MACHINE)
    pinned = space.narrowed(tile=7, steps=2)
    assert pinned.tiles == (7,) and pinned.steps == (2,)
    # A hand-picked tile stands even when it does not divide the block.
    assert not pinned.require_divisible


def test_pruned_reports_reasons():
    space = SearchSpace(tiles=(8, 96), steps=(1, 12))
    rejected = dict(space.pruned(PROBLEM, MACHINE, "ca-parsec"))
    assert Candidate(tile=96, steps=1) in rejected
    assert Candidate(tile=8, steps=12) in rejected


def test_empty_tiles_rejected():
    with pytest.raises(ValueError, match="at least one tile"):
        SearchSpace(tiles=())


def test_tune_never_evaluates_invalid_candidates(monkeypatch):
    """End-to-end pruning guarantee: hand tune() a space full of junk
    and record every candidate that reaches the evaluator."""
    evaluated = []
    real_evaluate = search_mod._evaluate

    def spy(problem, impl, machine, candidate, *args, **kwargs):
        evaluated.append(candidate)
        return real_evaluate(problem, impl, machine, candidate, *args, **kwargs)

    monkeypatch.setattr(search_mod, "_evaluate", spy)
    space = SearchSpace(tiles=(5, 8, 16, 96, 200), steps=(1, 2, 12, 50))
    result = tune(PROBLEM, impl="ca-parsec", machine=MACHINE, budget=6,
                  space=space, cache=False)
    assert evaluated, "the search should have spent some budget"
    assert all(
        invalid_reason(c, PROBLEM, MACHINE, "ca-parsec") is None
        for c in evaluated
    )
    assert invalid_reason(result.winner, PROBLEM, MACHINE, "ca-parsec") is None


def test_model_prediction_shapes():
    space = SearchSpace.for_problem(PROBLEM, MACHINE)
    preds = model.rank(PROBLEM, MACHINE, "ca-parsec",
                       space.candidates(PROBLEM, MACHINE, "ca-parsec"))
    assert preds == sorted(preds, key=lambda p: (p.time_s, p.candidate))
    assert all(p.time_s > 0 and p.gflops > 0 for p in preds)


def test_model_rejects_petsc():
    with pytest.raises(ValueError, match="PaRSEC"):
        model.predict(PROBLEM, MACHINE, "petsc", Candidate(tile=8))


def test_model_overhead_punishes_tiny_tiles():
    tiny = model.predict(PROBLEM, MACHINE, "ca-parsec", Candidate(tile=2))
    sane = model.predict(PROBLEM, MACHINE, "ca-parsec", Candidate(tile=24))
    assert tiny.time_s > sane.time_s
