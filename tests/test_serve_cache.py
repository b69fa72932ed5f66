"""Content-keyed result cache (``repro.serve.cache``): persistence,
schema versioning, the LRU bound, atomic-write hygiene and what the
memory layer holds (a result being written, or one read again)."""

from __future__ import annotations

import json
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from repro.obs import MetricRegistry
from repro.serve import ResultCache
from repro.serve import cache as cache_module
from repro.serve.cache import SCHEMA_VERSION, default_cache_dir
from repro.serve.request import SolveOutcome

from .conftest import join_all
from .serve_helpers import GatedPayloadWrites, LoadSpy


def make_outcome(signature: str, value: float = 1.0) -> SolveOutcome:
    return SolveOutcome(
        signature=signature,
        impl="base-parsec",
        elapsed=0.25,
        gflops=1.5,
        messages=12,
        message_bytes=960,
        params={"tile": 6, "ratio": 1.0},
        grid=np.full((6, 6), value),
    )


def test_roundtrip_bit_identical(tmp_path):
    reg = MetricRegistry()
    cache = ResultCache(tmp_path, metrics=reg)
    original = make_outcome("sig-a", 3.25)
    cache.put("sig-a", original)
    hit = cache.get("sig-a")
    assert hit is not None and hit.cached
    assert np.array_equal(hit.grid, original.grid)
    assert hit.impl == "base-parsec" and hit.elapsed == 0.25
    assert hit.params == {"tile": 6, "ratio": 1.0}
    snap = reg.snapshot()
    assert snap.counter("serve_cache_hits_total") == 1
    assert snap.counter("serve_cache_stores_total") == 1


def test_persists_across_instances(tmp_path):
    ResultCache(tmp_path).put("sig-a", make_outcome("sig-a", 2.0))
    fresh = ResultCache(tmp_path)  # cold in-memory layer: disk path
    hit = fresh.get("sig-a")
    assert hit is not None
    assert np.array_equal(hit.grid, np.full((6, 6), 2.0))


def test_miss_returns_none(tmp_path):
    reg = MetricRegistry()
    cache = ResultCache(tmp_path, metrics=reg)
    assert cache.get("never-stored") is None
    assert reg.snapshot().counter("serve_cache_misses_total") == 1


def test_hit_grids_are_read_only(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("sig-a", make_outcome("sig-a"))
    hit = cache.get("sig-a")
    assert not hit.grid.flags.writeable  # hits share one array
    with pytest.raises(ValueError):
        hit.grid[0, 0] = 99.0


def test_lru_eviction_honours_get_recency(tmp_path):
    reg = MetricRegistry()
    cache = ResultCache(tmp_path, max_entries=2, metrics=reg)
    cache.put("sig-a", make_outcome("sig-a"))
    cache.put("sig-b", make_outcome("sig-b"))
    cache.get("sig-a")  # a is now more recently used than b
    cache.put("sig-c", make_outcome("sig-c"))
    assert ResultCache(tmp_path).get("sig-b") is None  # b was the LRU
    assert cache.get("sig-a") is not None
    assert cache.get("sig-c") is not None
    assert reg.snapshot().counter("serve_cache_evictions_total") == 1
    # the evicted entry's payload was unlinked, not leaked
    npz_files = list(tmp_path.glob("*.npz"))
    assert len(npz_files) == 2


def test_unknown_schema_treated_as_empty(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("sig-a", make_outcome("sig-a"))
    index = json.loads((tmp_path / "index.json").read_text())
    index["schema"] = SCHEMA_VERSION + 99
    (tmp_path / "index.json").write_text(json.dumps(index))
    fresh = ResultCache(tmp_path)
    assert len(fresh) == 0
    assert fresh.get("sig-a") is None  # never migrated, never crashed
    fresh.put("sig-b", make_outcome("sig-b"))  # writes the current schema
    doc = json.loads((tmp_path / "index.json").read_text())
    assert doc["schema"] == SCHEMA_VERSION
    assert list(doc["entries"]) == ["sig-b"]


def test_corrupt_index_treated_as_empty(tmp_path):
    (tmp_path / "index.json").write_text("{ not json !")
    cache = ResultCache(tmp_path)
    assert cache.get("sig-a") is None
    cache.put("sig-a", make_outcome("sig-a"))  # heals by rewriting
    assert ResultCache(tmp_path).get("sig-a") is not None


def test_lost_payload_is_a_miss_not_a_crash(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("sig-a", make_outcome("sig-a"))
    for npz in tmp_path.glob("*.npz"):
        npz.unlink()
    assert ResultCache(tmp_path).get("sig-a") is None


def test_atomic_writes_leave_no_temp_droppings(tmp_path):
    cache = ResultCache(tmp_path)
    for i in range(5):
        cache.put(f"sig-{i}", make_outcome(f"sig-{i}", float(i)))
    assert not list(tmp_path.glob("*.tmp"))
    json.loads((tmp_path / "index.json").read_text())  # always parseable


def test_atomic_write_failure_leaves_nothing_behind(tmp_path):
    """The one writer every store shares: a failing ``write_fn`` leaves
    neither a temp file nor a torn target."""
    from repro.core.store import atomic_write

    target = tmp_path / "deep" / "state.json"

    def boom(fh):
        fh.write(b"half")
        raise RuntimeError("disk full")

    with pytest.raises(RuntimeError):
        atomic_write(target, boom)
    assert list(target.parent.iterdir()) == []
    atomic_write(target, lambda fh: fh.write(b"v1"))
    with pytest.raises(RuntimeError):
        atomic_write(target, boom)
    assert target.read_bytes() == b"v1"
    assert [p.name for p in target.parent.iterdir()] == ["state.json"]


def test_checkpoint_meta_failure_leaks_no_temp_file(tmp_path, monkeypatch):
    """``CheckpointStore.ensure_meta`` was the one private writer that
    left its ``*.tmp`` behind when the publish step raised."""
    import os

    from repro.chaos.checkpoint import CheckpointStore

    store = CheckpointStore(tmp_path)

    def refuse(src, dst):
        raise OSError("read-only file system")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        store.ensure_meta((8, 8))
    assert list(tmp_path.iterdir()) == []


def test_concurrent_stores_merge_not_clobber(tmp_path):
    """Two service processes sharing one cache dir: the second put
    re-reads the index before replacing it, so the first's entry
    survives."""
    first, second = ResultCache(tmp_path), ResultCache(tmp_path)
    first.put("sig-a", make_outcome("sig-a"))
    second.put("sig-b", make_outcome("sig-b"))
    entries = ResultCache(tmp_path).entries()
    assert set(entries) == {"sig-a", "sig-b"}


def test_clear_empties_index_and_payloads(tmp_path):
    cache = ResultCache(tmp_path)
    cache.put("sig-a", make_outcome("sig-a"))
    cache.clear()
    assert len(cache) == 0
    assert not list(tmp_path.glob("*.npz"))
    assert cache.get("sig-a") is None


def test_default_cache_dir_env_override(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_SERVE_CACHE", str(tmp_path / "elsewhere"))
    assert default_cache_dir() == tmp_path / "elsewhere"


# -- the lock is not held across a payload write; the index is parsed once --


def test_probes_do_not_wait_behind_a_payload_write(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cache.put("sig-old", make_outcome("sig-old", 1.0))
    gate = GatedPayloadWrites(monkeypatch)
    with ThreadPoolExecutor(2) as threads:
        writing = threads.submit(cache.put, "sig-a", make_outcome("sig-a", 2.0))
        assert gate.started.wait(30)
        # A miss, a disk hit and a memory hit all return while it writes.
        assert threads.submit(cache.get, "sig-b").result(timeout=10) is None
        assert threads.submit(cache.get, "sig-old").result(timeout=10).cached
        assert threads.submit(cache.get, "sig-a").result(timeout=10) is None
        cache.remember("sig-a", make_outcome("sig-a", 2.0))
        hit = threads.submit(cache.get, "sig-a").result(timeout=10)
        assert hit.cached and np.array_equal(hit.grid, np.full((6, 6), 2.0))
        assert len(cache) == 1 and not writing.done()
        gate.release.set()
        writing.result(timeout=30)
    assert set(ResultCache(tmp_path).entries()) == {"sig-old", "sig-a"}
    assert ResultCache(tmp_path).get("sig-a") is not None


def test_failed_payload_write_leaves_no_entry_and_no_temp_file(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    GatedPayloadWrites(monkeypatch, fail=True)
    with pytest.raises(OSError, match="No space left"):
        cache.put("sig-a", make_outcome("sig-a"))
    assert list(tmp_path.iterdir()) == [] and len(cache) == 0
    assert cache.get("sig-a") is None


def test_index_is_parsed_once_until_another_process_replaces_it(tmp_path, monkeypatch):
    writer = ResultCache(tmp_path)
    for name in ("sig-a", "sig-b", "sig-c"):
        writer.put(name, make_outcome(name))
    assert "\n" not in (tmp_path / "index.json").read_text()  # no indent
    parses, loads = [], json.loads
    monkeypatch.setattr(cache_module.json, "loads",
                        lambda text: (parses.append(1), loads(text))[1])
    reader = ResultCache(tmp_path)
    for k in range(5):
        assert reader.get(f"never-stored-{k}") is None
    assert len(reader) == 3 and set(reader.entries()) == {"sig-a", "sig-b", "sig-c"}
    assert len(parses) == 1
    reader.put("sig-d", make_outcome("sig-d"))  # merge-before-replace: from memory
    assert reader.get("nope") is None and len(parses) == 1
    writer.put("sig-e", make_outcome("sig-e"))  # "another process": it re-reads ...
    assert set(writer.entries()) == {"sig-a", "sig-b", "sig-c", "sig-d", "sig-e"}
    assert reader.get("sig-e") is not None  # ... and so does this one, once
    assert reader.get("nope") is None and len(reader) == 5
    assert len(parses) == 3


# -- what the memory layer holds: the write window and re-reads --------------


def test_memory_entries_must_be_non_negative(tmp_path):
    with pytest.raises(ValueError, match="memory_entries must be non-negative"):
        ResultCache(tmp_path, memory_entries=-1)
    with pytest.raises(ValueError, match="max_entries must be positive"):
        ResultCache(tmp_path, max_entries=0)


def test_a_write_is_not_admitted_a_re_read_is(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    cache.put("sig-a", make_outcome("sig-a", 4.0))
    disk = LoadSpy(monkeypatch)
    assert cache.get("sig-a").cached and disk.calls == 1  # not kept by put
    assert cache.get("sig-a").cached and disk.calls == 1  # kept by the re-read


def test_zero_memory_entries_keeps_the_write_window_only(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path, memory_entries=0)
    disk = LoadSpy(monkeypatch)
    cache.remember("sig-a", make_outcome("sig-a", 5.0))
    hit = cache.get("sig-a")  # pending: served while the write is due
    assert hit.cached and np.array_equal(hit.grid, np.full((6, 6), 5.0))
    cache.put("sig-a", make_outcome("sig-a", 5.0))
    for expected_reads in (1, 2):  # no re-read layer: every hit is a disk read
        assert cache.get("sig-a").cached and disk.calls == expected_reads


def test_re_reads_beyond_memory_entries_are_dropped_lru_first(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path, memory_entries=3)
    names = [f"sig-{k}" for k in range(5)]
    for name in names:
        cache.put(name, make_outcome(name))
    disk = LoadSpy(monkeypatch)
    for name in names:
        assert cache.get(name) is not None
    assert disk.calls == 5 and list(cache._mem) == names[2:]
    for name in names[2:]:  # the three most recent re-reads: memory hits
        assert cache.get(name) is not None
    assert disk.calls == 5
    assert cache.get(names[0]) is not None and disk.calls == 6
    assert list(cache._mem) == [*names[3:], names[0]]


def test_eviction_and_clear_drop_admitted_entries(tmp_path):
    cache = ResultCache(tmp_path, max_entries=2)
    cache.put("sig-a", make_outcome("sig-a"))
    assert cache.get("sig-a") is not None  # admitted
    cache.put("sig-b", make_outcome("sig-b"))
    cache.put("sig-c", make_outcome("sig-c"))  # evicts a, the least recently used
    assert cache.get("sig-a") is None and "sig-a" not in cache._mem
    assert cache.get("sig-c") is not None and "sig-c" in cache._mem
    cache.remember("sig-d", make_outcome("sig-d"))
    cache.clear()
    assert cache.get("sig-c") is None and cache.get("sig-d") is None
    assert not cache._mem and not cache._pending


def test_every_kind_of_hit_is_read_only_and_bit_identical(tmp_path):
    executed = make_outcome("sig-a", 6.5)
    truth = executed.grid.copy()
    cache = ResultCache(tmp_path)
    cache.remember("sig-a", executed)
    hits = [cache.get("sig-a")]  # from the pending table
    cache.put("sig-a", executed)
    hits.append(cache.get("sig-a"))  # from the re-read layer
    hits.append(ResultCache(tmp_path).get("sig-a"))  # from disk
    for hit in hits:
        assert hit.cached and not hit.grid.flags.writeable
        assert np.array_equal(hit.grid, truth)
        with pytest.raises(ValueError):
            hit.grid[0, 0] = 99.0


def test_a_failed_write_keeps_the_remembered_outcome_in_memory(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path, memory_entries=1)
    GatedPayloadWrites(monkeypatch, fail=True)
    cache.remember("sig-a", make_outcome("sig-a", 7.0))
    with pytest.raises(OSError, match="No space left"):
        cache.put("sig-a", make_outcome("sig-a", 7.0))
    assert not cache._pending and list(cache._mem) == ["sig-a"]
    assert np.array_equal(cache.get("sig-a").grid, np.full((6, 6), 7.0))
    assert list(tmp_path.iterdir()) == [] and len(cache) == 0


def test_a_disk_hit_decodes_outside_the_lock(tmp_path, monkeypatch):
    cache = ResultCache(tmp_path)
    for name in ("sig-disk", "sig-hot"):
        cache.put(name, make_outcome(name))
    assert cache.get("sig-hot") is not None  # admitted: a memory hit from now on
    disk = LoadSpy(monkeypatch, park=True)
    with ThreadPoolExecutor(2) as threads:
        reading = threads.submit(cache.get, "sig-disk")
        assert disk.started.wait(30)
        # A memory hit, a miss and an index merge all go by the parked read.
        assert threads.submit(cache.get, "sig-hot").result(timeout=10).cached
        assert threads.submit(cache.get, "sig-none").result(timeout=10) is None
        threads.submit(cache.put, "sig-new", make_outcome("sig-new")).result(timeout=10)
        assert not reading.done()
        disk.release.set()
        assert reading.result(timeout=30).cached
    assert disk.calls == 1 and "sig-disk" in cache._mem


def test_an_entry_evicted_while_its_payload_decodes_is_a_miss(tmp_path, monkeypatch):
    reg = MetricRegistry()
    cache = ResultCache(tmp_path, max_entries=1, metrics=reg)
    cache.put("sig-a", make_outcome("sig-a"))
    disk = LoadSpy(monkeypatch, park=True)
    with ThreadPoolExecutor(1) as threads:
        reading = threads.submit(cache.get, "sig-a")
        assert disk.started.wait(30)
        cache.put("sig-b", make_outcome("sig-b"))  # evicts a under the reader
        disk.release.set()
        assert reading.result(timeout=30) is None
    assert "sig-a" not in cache._mem
    snap = reg.snapshot()
    assert snap.counter("serve_cache_misses_total") == 1
    assert snap.counter("serve_cache_hits_total") == 0


def test_a_remembered_result_always_hits_under_racing_threads(tmp_path):
    """Four threads remember, re-read and write results while each
    probes the others' latest: whichever of the pending table, the
    disk or the re-read layer holds a result, a probe finds it, and
    when every write has landed only re-reads are left in memory."""
    cache = ResultCache(tmp_path, memory_entries=4)
    remembered: list[str] = []
    misses: list[str] = []

    def writer(t: int) -> None:
        for k in range(12):
            name = f"sig-{t}-{k}"
            outcome = make_outcome(name, float(k))
            cache.remember(name, outcome)
            remembered.append(name)
            misses.extend(sig for sig in remembered[-6:] if cache.get(sig) is None)
            cache.put(name, outcome)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=writer, args=(t,)) for t in range(4)]
        for thread in threads:
            thread.start()
        assert join_all(threads, 120) == []
    finally:
        sys.setswitchinterval(interval)
    assert misses == []
    assert not cache._pending and len(cache._mem) <= 4 and len(cache) == 48
