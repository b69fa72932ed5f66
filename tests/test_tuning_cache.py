"""Tuning-cache persistence: hit/miss/invalidation semantics.

The cache's one job is to never serve a stale winner: any change to
the machine's calibrated constants, the problem, the backend or the
implementation must miss.  Corruption and schema drift degrade to an
empty cache, never to an exception.
"""

import dataclasses
import json

import pytest

from repro.machine.machine import nacl, stampede2
from repro.machine import units
from repro.stencil.problem import JacobiProblem
from repro.tuning import TuningCache, cache_key, problem_signature
from repro.tuning.cache import SCHEMA_VERSION, default_cache_path
from repro.tuning.space import Candidate


PROBLEM = JacobiProblem(n=96, iterations=4)
WINNER = Candidate(tile=24, steps=2)


@pytest.fixture
def cache(tmp_path):
    return TuningCache(tmp_path / "tuning.json")


def test_miss_on_empty(cache):
    assert cache.get(nacl(4), PROBLEM, "sim", "ca-parsec") is None


def test_put_then_hit(cache):
    entry = cache.put(nacl(4), PROBLEM, "sim", "ca-parsec", WINNER,
                      gflops=12.5)
    got = cache.get(nacl(4), PROBLEM, "sim", "ca-parsec")
    assert got is not None
    assert cache.candidate_of(got) == WINNER
    assert got["gflops"] == 12.5
    assert entry["machine"] == "NaCL" and entry["nodes"] == 4


def test_fingerprint_change_invalidates(cache):
    cache.put(nacl(4), PROBLEM, "sim", "ca-parsec", WINNER)
    # Same preset, one calibrated constant edited: the fingerprint
    # moves and the entry must miss.
    m = nacl(4)
    edited = dataclasses.replace(
        m, node=dataclasses.replace(m.node, task_overhead=7 * units.MICROSECOND)
    )
    assert edited.fingerprint() != m.fingerprint()
    assert cache.get(edited, PROBLEM, "sim", "ca-parsec") is None
    assert cache.get(m, PROBLEM, "sim", "ca-parsec") is not None


def test_key_discriminates_every_axis(cache):
    cache.put(nacl(4), PROBLEM, "sim", "ca-parsec", WINNER)
    assert cache.get(stampede2(4), PROBLEM, "sim", "ca-parsec") is None
    assert cache.get(nacl(16), PROBLEM, "sim", "ca-parsec") is None
    assert cache.get(nacl(4), JacobiProblem(n=96, iterations=8),
                     "sim", "ca-parsec") is None
    assert cache.get(nacl(4), PROBLEM, "threads", "ca-parsec") is None
    assert cache.get(nacl(4), PROBLEM, "sim", "base-parsec") is None
    assert cache.get(nacl(4), PROBLEM, "sim", "ca-parsec", "ratio=0.2") is None


def test_extra_key_separates_entries(cache):
    cache.put(nacl(4), PROBLEM, "sim", "ca-parsec", WINNER)
    other = Candidate(tile=12, steps=4)
    cache.put(nacl(4), PROBLEM, "sim", "ca-parsec", other, "ratio=0.2")
    plain = cache.get(nacl(4), PROBLEM, "sim", "ca-parsec")
    adjusted = cache.get(nacl(4), PROBLEM, "sim", "ca-parsec", "ratio=0.2")
    assert cache.candidate_of(plain) == WINNER
    assert cache.candidate_of(adjusted) == other


def test_invalidate_and_clear(cache):
    cache.put(nacl(4), PROBLEM, "sim", "ca-parsec", WINNER)
    assert cache.invalidate(nacl(4), PROBLEM, "sim", "ca-parsec")
    assert not cache.invalidate(nacl(4), PROBLEM, "sim", "ca-parsec")
    cache.put(nacl(4), PROBLEM, "sim", "ca-parsec", WINNER)
    cache.clear()
    assert cache.entries() == {}


def test_corrupt_file_degrades_to_empty(cache):
    cache.path.write_text("not json {{{")
    assert cache.entries() == {}
    # And writes still work afterwards (atomic replace, not append).
    cache.put(nacl(4), PROBLEM, "sim", "ca-parsec", WINNER)
    assert cache.get(nacl(4), PROBLEM, "sim", "ca-parsec") is not None


def test_unknown_schema_ignored_wholesale(cache):
    cache.put(nacl(4), PROBLEM, "sim", "ca-parsec", WINNER)
    doc = json.loads(cache.path.read_text())
    assert doc["schema"] == SCHEMA_VERSION
    doc["schema"] = SCHEMA_VERSION + 1
    cache.path.write_text(json.dumps(doc))
    assert cache.get(nacl(4), PROBLEM, "sim", "ca-parsec") is None


def test_incomplete_entry_rejected(cache):
    key = cache_key(nacl(4), PROBLEM, "sim", "ca-parsec")
    cache.path.write_text(json.dumps({
        "schema": SCHEMA_VERSION,
        "entries": {key: {"tile": 24}},  # missing steps/policy/...
    }))
    assert cache.get(nacl(4), PROBLEM, "sim", "ca-parsec") is None


def test_entry_naming_an_unknown_pass_is_a_miss_that_retunes(cache):
    """A winner an older version stored with a graph-rewrite pass (this
    version has none) misses instead of failing the run that would use
    it or standing in as a pass-free winner, and the next tune replaces
    it.  An empty ``passes`` field, which every older entry carries, is
    no pass: that entry still hits."""
    from repro.tuning import tune

    key = cache_key(nacl(4), PROBLEM, "sim", "ca-parsec")

    def store(passes):  # the raw entry an older version wrote
        cache.put(nacl(4), PROBLEM, "sim", "ca-parsec", WINNER)
        doc = json.loads(cache.path.read_text())
        doc["entries"][key]["passes"] = passes
        cache.path.write_text(json.dumps(doc))

    store("")
    assert cache.candidate_of(cache.get(nacl(4), PROBLEM, "sim", "ca-parsec")) == WINNER
    for gone in ("ca:steps=2", "coarsen,coarsen", "nosuchpass,coarsen:factor=4",
                 "coarsen:factor=4"):
        store(gone)
        assert cache.get(nacl(4), PROBLEM, "sim", "ca-parsec") is None, gone
    result = tune(PROBLEM, impl="ca-parsec", machine=nacl(4), budget=4,
                  cache=cache)
    assert result.source == "search"
    entry = cache.get(nacl(4), PROBLEM, "sim", "ca-parsec")
    assert cache.candidate_of(entry) == result.winner


def test_concurrent_writers_merge_not_clobber(cache):
    other_problem = JacobiProblem(n=96, iterations=8)
    cache.put(nacl(4), PROBLEM, "sim", "ca-parsec", WINNER)
    cache.put(nacl(4), other_problem, "sim", "ca-parsec", Candidate(tile=12))
    assert cache.get(nacl(4), PROBLEM, "sim", "ca-parsec") is not None
    assert cache.get(nacl(4), other_problem, "sim", "ca-parsec") is not None


def test_atomic_write_leaves_no_droppings(cache):
    cache.put(nacl(4), PROBLEM, "sim", "ca-parsec", WINNER)
    leftovers = [p for p in cache.path.parent.iterdir()
                 if p.name != cache.path.name]
    assert leftovers == []


def test_problem_signature_fields():
    sig = problem_signature(PROBLEM)
    assert "96x96" in sig and "it4" in sig and "nosrc" in sig


def test_default_path_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_TUNING_CACHE", str(tmp_path / "alt.json"))
    assert default_cache_path() == tmp_path / "alt.json"
    assert TuningCache().path == tmp_path / "alt.json"
