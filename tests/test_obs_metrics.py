"""Metrics-registry semantics and cross-backend exactness.

The telemetry layer's core contract (ISSUE 4): counter / gauge /
histogram semantics, deterministic snapshots, and -- the part that
makes the numbers trustworthy -- *exact* agreement between the three
backends and the static graph census for one fixed problem:

* the sim engine's ``messages_total`` equals the census message count;
* the threads backend's ``tasks_executed_total`` equals the graph's
  task count (and the sim's);
* the procs backend's parent-side *merged* counters (one child
  registry per node process, shipped over the control pipe) equal the
  single-process totals exactly.
"""

from __future__ import annotations

import pickle
from collections import Counter

import pytest

from repro.core.base_parsec import build_base_graph
from repro.core.runner import run
from repro.distgrid.partition import ProcessGrid
from repro.exec import fork_available
from repro.machine.machine import nacl
from repro.obs import MetricRegistry, MetricsSnapshot
from repro.stencil.problem import JacobiProblem

N = 48
TILE = 24
ITERATIONS = 6
PGRID = ProcessGrid(2, 1)
MACHINE = nacl(2)
PROBLEM = JacobiProblem(n=N, iterations=ITERATIONS)


def _run(backend: str, **kwargs):
    registry = MetricRegistry()
    result = run(PROBLEM, impl="base-parsec", machine=MACHINE, tile=TILE,
                 backend=backend, pgrid=PGRID, metrics=registry, **kwargs)
    return result, result.metrics


def _census():
    built = build_base_graph(PROBLEM, MACHINE, tile=TILE, with_kernels=False,
                             pgrid=PGRID)
    built.graph.finalize()
    return built.graph


# ---------------------------------------------------------------------------
# primitive semantics
# ---------------------------------------------------------------------------


def test_counter_semantics():
    reg = MetricRegistry()
    c = reg.counter("events_total", help="h", unit="1")
    c.inc()
    c.inc(2, kind="a")
    c.inc(3, kind="b")
    c.labels(kind="a").add(4)
    assert c.value() == 1
    assert c.value(kind="a") == 6
    assert c.total() == 10
    with pytest.raises(ValueError):
        c.inc(-1)
    # get-or-make returns the same object; a kind clash is an error
    assert reg.counter("events_total") is c
    with pytest.raises(TypeError):
        reg.gauge("events_total")


def test_gauge_high_water():
    reg = MetricRegistry()
    g = reg.gauge("depth")
    g.set(3)
    g.set(7)
    g.set(2)
    assert g.value() == 2
    assert g.high_water() == 7


def test_histogram_semantics():
    reg = MetricRegistry()
    h = reg.histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    cell = h.labels()
    assert cell.count == 5
    assert cell.sum == pytest.approx(56.05)
    assert cell.min == 0.05 and cell.max == 50.0
    # bucket layout: (-inf,0.1], (0.1,1], (1,10], (10,+inf)
    assert cell.buckets == [1, 2, 1, 1]


def test_snapshot_determinism_and_roundtrip():
    def build(order):
        reg = MetricRegistry()
        for kind, amount in order:
            reg.counter("tasks_total").inc(amount, kind=kind)
        reg.gauge("depth").set(4)
        reg.histogram("dur", buckets=(1.0,)).observe(0.5)
        return reg.snapshot()

    a = build([("x", 1), ("y", 2), ("z", 3)])
    b = build([("z", 3), ("x", 1), ("y", 2)])
    assert a.data == b.data  # recording order cannot leak into snapshots
    # JSON-safe round trip and pickling (the procs backend ships these)
    assert MetricsSnapshot.from_dict(a.as_dict()).data == a.data
    assert pickle.loads(pickle.dumps(a)).data == a.data


def test_snapshot_delta():
    reg = MetricRegistry()
    c = reg.counter("n_total")
    c.inc(5)
    before = reg.snapshot()
    c.inc(3)
    delta = reg.snapshot().delta(before)
    assert delta.counter("n_total") == 3


def test_merge_adds_counters_and_maxes_gauges():
    a, b = MetricRegistry(), MetricRegistry()
    a.counter("msgs_total").inc(4, dst="1")
    b.counter("msgs_total").inc(6, dst="1")
    b.counter("msgs_total").inc(1, dst="2")
    a.gauge("backlog").set(3)
    b.gauge("backlog").set(9)
    a.merge(b.snapshot())
    snap = a.snapshot()
    assert snap.counter("msgs_total") == 11
    assert snap.counter("msgs_total", dst="1") == 10
    assert snap.gauge("backlog") == 9


# ---------------------------------------------------------------------------
# cross-backend exactness
# ---------------------------------------------------------------------------


def test_sim_metrics_equal_static_census():
    graph = _census()
    census = graph.census()
    result, snap = _run("sim")
    assert snap.counter("messages_total") == census.remote_messages
    assert snap.counter("message_bytes_total") == census.remote_bytes
    assert snap.counter("messages_total") == result.messages
    assert snap.counter("tasks_executed_total") == len(graph.tasks)
    assert snap.gauge("census_messages") == census.remote_messages


def test_threads_task_counts_equal_their_graph():
    """Each backend counts the tasks it ran: the simulator the paper's
    graph, the threads backend the node-block graph -- per kind too."""
    sim_result, sim = _run("sim")
    threads_result, threads = _run("threads", jobs=2)
    assert sim.counter("tasks_executed_total") == len(_census().tasks)
    for result, snap in ((sim_result, sim), (threads_result, threads)):
        kinds = Counter(task.kind for task in result.graph)
        assert snap.counter("tasks_executed_total") == len(result.graph)
        assert snap.labelled("tasks_executed_total") == {
            (("kind", kind),): count for kind, count in kinds.items()}


@pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
@pytest.mark.timeout(600)
def test_procs_merged_counters_equal_single_process_totals():
    census = _census().census()
    _, sim = _run("sim")
    threads_run, threads = _run("threads", jobs=1)
    procs_run, procs = _run("processes", procs=2, jobs=1)

    def executed(result):
        return {(("kind", kind),): count
                for kind, count in Counter(task.kind for task in result.graph).items()}

    # Each backend's counters are the graph it ran: merged child
    # registries count the per-node graph, threads its one node block.
    assert procs.labelled("tasks_executed_total") == executed(procs_run)
    assert threads.labelled("tasks_executed_total") == executed(threads_run)
    assert threads.gauge("census_messages") == threads.counter("messages_total") == 0
    assert procs.counter("messages_total") == census.remote_messages
    assert procs.counter("messages_total") == sim.counter("messages_total")
    assert (procs.counter("message_bytes_total")
            == census.remote_bytes)
    # real pickled payloads are at least as big as the raw arrays
    assert procs.counter("wire_bytes_total") >= census.remote_bytes
    # per-pair message labels survive the merge
    by_pair = {
        (int(dict(ls)["src"]), int(dict(ls)["dst"])): int(v)
        for ls, v in procs.labelled("messages_total").items()
    }
    assert by_pair == {pair: m for pair, (m, _) in census.by_pair.items()}


def test_result_metrics_none_when_uninstrumented():
    result = run(PROBLEM, impl="base-parsec", machine=MACHINE, tile=TILE,
                 pgrid=PGRID)
    assert result.metrics is None


# -- quantiles (the SLO report's estimator) ------------------------------


def test_histogram_quantile_interpolation_and_clamping():
    from repro.obs.metrics import bucket_quantile

    reg = MetricRegistry()
    h = reg.histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.5, 0.5, 5.0, 50.0):
        h.observe(v)
    cell = h.labels()
    # extremes clamp to the observed min/max, not the bucket bounds
    assert cell.quantile(0.0) == 0.05
    assert cell.quantile(1.0) == 50.0
    # the median lands in the (0.1, 1.0] bucket
    assert 0.1 < cell.quantile(0.5) <= 1.0
    # aggregate quantile across labelled cells matches the direct call
    assert h.quantile(0.5) == cell.quantile(0.5)
    with pytest.raises(ValueError):
        cell.quantile(1.5)
    # empty state has no quantiles
    assert bucket_quantile((1.0,), [0, 0], 0, None, None, 0.5) is None


def test_aggregate_quantile_merges_labelled_cells():
    from repro.obs.metrics import (
        merge_histogram_states,
        quantile_from_state,
    )

    reg = MetricRegistry()
    h = reg.histogram("latency_seconds", buckets=(0.1, 1.0, 10.0))
    for v in (0.05, 0.2, 0.3):
        h.observe(v, tenant="a")
    for v in (2.0, 5.0, 8.0):
        h.observe(v, tenant="b")
    # the aggregate is the merged-state quantile, not either cell's
    snap = reg.snapshot()
    merged = merge_histogram_states(
        snap.data["latency_seconds"]["values"].values()
    )
    assert h.quantile(0.5) == quantile_from_state(merged, 0.5)
    assert h.quantile(0.5) != h.quantile(0.5, tenant="a")
    assert h.quantile(0.0) == 0.05 and h.quantile(1.0) == 8.0
    # empty histogram -> None, not an error
    assert reg.histogram("empty_seconds", buckets=(1.0,)).quantile(0.5) is None


def test_aggregate_quantile_rejects_mismatched_cell_bounds():
    reg = MetricRegistry()
    h = reg.histogram("latency_seconds", buckets=(0.1, 1.0))
    h.observe(0.5, tenant="a")
    h.observe(0.7, tenant="b")
    # simulate a cell whose ladder disagrees (a foreign registry merged
    # the metric with another bucket layout): the aggregate must raise,
    # not silently sum positional buckets from different ladders
    cell = h.labels(tenant="b")
    cell.bounds = (9.9,)
    cell.buckets = [1, 0]
    with pytest.raises(ValueError):
        h.quantile(0.5)
    # the per-cell path is still fine
    assert h.quantile(0.5, tenant="a") == pytest.approx(0.5)


def test_merge_histogram_states_folds_and_rejects_mismatch():
    from repro.obs.metrics import (
        merge_histogram_states,
        quantile_from_state,
    )

    reg = MetricRegistry()
    h = reg.histogram("latency_seconds", buckets=(0.1, 1.0))
    h.observe(0.05, tenant="a")
    h.observe(0.5, tenant="b")
    h.observe(0.7, tenant="b")
    snap = reg.snapshot()
    states = snap.data["latency_seconds"]["values"].values()
    merged = merge_histogram_states(states)
    assert merged["count"] == 3
    assert merged["min"] == 0.05 and merged["max"] == 0.7
    assert merged["sum"] == pytest.approx(1.25)
    assert 0.1 < quantile_from_state(merged, 0.5) <= 0.7
    assert merge_histogram_states([]) is None
    other = {"bounds": [9.9], "buckets": [0, 0], "count": 0,
             "sum": 0.0, "min": None, "max": None}
    with pytest.raises(ValueError):
        merge_histogram_states([merged, other])
