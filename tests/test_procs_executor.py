"""Unit and stress tests of the multiprocess executor: cross-process
payload routing, failure containment (a raising kernel must propagate
as KernelError without hanging the pool), cancellation under load with
no orphan worker processes, and argument validation."""

from __future__ import annotations

import multiprocessing
import os
import time

import numpy as np
import pytest

from repro.exec import (
    ProcessExecutor,
    RunCancelled,
    execute,
    execute_procs,
    fork_available,
)
from repro.exec.procs import default_procs
from repro.obs import MetricRegistry
from repro.runtime.engine import KernelError
from repro.runtime.graph import TaskGraph
from repro.runtime.scheduler import POLICIES
from repro.runtime.task import Flow, Task

from .conftest import (
    assert_report_folds_match_graph,
    join_all,
    run_on_thread,
    small_stencil_graph,
)

pytestmark = [
    pytest.mark.skipif(not fork_available(), reason="needs POSIX fork"),
    pytest.mark.timeout(300),
]


def kernel(inputs, task):
    total = sum(v for v in inputs.values() if v is not None) or 1.0
    return {"v": total + 1.0}


def cross_diamond() -> TaskGraph:
    """a -> (b, c) -> d with the two branches on different nodes, so
    a->c and b->d are real inter-process messages."""
    g = TaskGraph()
    g.add(Task("a", node=0, kernel=kernel, out_nbytes={"v": 8}))
    g.add(Task("b", node=0, inputs=(Flow("a", "v", 8),), kernel=kernel,
               out_nbytes={"v": 8}))
    g.add(Task("c", node=1, inputs=(Flow("a", "v", 8),), kernel=kernel,
               out_nbytes={"v": 8}))
    g.add(Task("d", node=1,
               inputs=(Flow("b", "v", 8), Flow("c", "v", 8)),
               kernel=kernel, out_nbytes={"v": 8}))
    return g


def cross_chain(n: int = 12, nodes: int = 2, delay: float = 0.0,
                started=None) -> TaskGraph:
    """A chain that ping-pongs between nodes every task; ``started``
    (a ``multiprocessing.Event``) is set once a kernel is running."""

    def make():
        def k(inputs, task):
            if started is not None:
                started.set()
            if delay:
                time.sleep(delay)
            return {"v": sum(v for v in inputs.values() if v is not None) + 1.0}

        return k

    g = TaskGraph()
    g.add(Task(0, node=0, kernel=make(), out_nbytes={"v": 8}))
    for i in range(1, n):
        g.add(Task(i, node=i % nodes, inputs=(Flow(i - 1, "v", 8),),
                   kernel=make(), out_nbytes={"v": 8}))
    return g


def assert_no_orphans(ex: ProcessExecutor) -> None:
    """Every node process must be dead once ``run()`` returned."""
    alive = join_all(ex.processes)
    assert alive == [], f"orphan node processes survived the run: {alive}"


# -- happy path ---------------------------------------------------------


def test_cross_process_diamond_routes_payloads():
    g = cross_diamond()
    report = execute_procs(g, procs=2, jobs=1)
    assert report.tasks_run == 4
    assert report.completed == {"a", "b", "c", "d"}
    # a=2, b=c=3, d=7: the payloads really crossed the pipes.
    assert report.results[("d", "v")] == 7.0
    # a->c and b->d are remote (8 declared bytes each); a->b, c->d local.
    assert report.messages == 2
    assert report.message_bytes == 16
    assert report.wire_bytes > report.message_bytes  # pickle framing
    assert report.by_pair == {(0, 1): (2, 16)}
    assert report.procs == 2 and report.jobs == 1
    assert report.local_edges == 2


@pytest.mark.parametrize("make_graph",
                         [cross_diamond, cross_chain, small_stencil_graph])
def test_report_tallies_are_folds_of_the_lanes(make_graph):
    """Each child folds its own lanes; merged, they are the graph."""
    graph = make_graph()
    report = execute_procs(graph, procs=2, jobs=1, metrics=MetricRegistry())
    assert_report_folds_match_graph(graph, report)


def test_matches_threads_backend_results():
    n = 14
    procs_report = execute_procs(cross_chain(n), procs=2, jobs=1)
    threads_report = execute(cross_chain(n), jobs=2)
    assert procs_report.results[(n - 1, "v")] == threads_report.results[(n - 1, "v")]
    assert procs_report.completed == threads_report.completed
    # Every node hand-over is one message.
    assert procs_report.messages == n - 1


def test_numpy_payloads_cross_processes_intact():
    payload = np.arange(6, dtype=np.float64)

    def producer(inputs, task):
        return {"x": payload.copy()}

    def consumer(inputs, task):
        return {"y": inputs[("p", "x")] * 2.0}

    g = TaskGraph()
    g.add(Task("p", node=0, kernel=producer, out_nbytes={"x": 48}))
    g.add(Task("c", node=1, inputs=(Flow("p", "x", 48),), kernel=consumer,
               out_nbytes={"y": 48}))
    report = execute_procs(g, procs=2, jobs=1)
    assert np.array_equal(report.results[("c", "y")], payload * 2.0)


def test_node_without_tasks_still_participates():
    report = execute_procs(cross_diamond(), procs=3, jobs=1)
    assert report.procs == 3
    assert report.results[("d", "v")] == 7.0


def test_per_node_worker_accounting():
    report = execute_procs(cross_chain(16), procs=2, jobs=2)
    # Global worker ids: node * jobs + wid.
    assert set(report.worker_busy) == {0, 1, 2, 3}
    assert set(report.node_busy) == {0, 1}
    assert 0 <= report.worker_occupancy <= 1


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_ring_arrival_readies_a_consumer_through_the_nodes_queue(policy):
    """``c`` has one input and it is remote: only the arrived ring
    record can push it to node 1's ready queue, whichever of the node's
    two workers drains the ring; and what the nodes sent is the census."""
    report = execute_procs(cross_diamond(), procs=2, jobs=2, policy=policy)
    assert report.results[("d", "v")] == 7.0
    assert report.jobs == 2
    graph = small_stencil_graph()
    report = execute_procs(graph, procs=2, jobs=2, policy=policy)
    census = graph.census()
    assert report.completed == {task.key for task in graph}
    assert census.remote_messages > 0 and report.by_pair == census.by_pair
    assert (report.messages, report.message_bytes) == (
        census.remote_messages, census.remote_bytes)


def test_one_worker_per_node_unless_asked():
    assert ProcessExecutor(cross_diamond(), procs=2).jobs == 1


# -- failure containment ------------------------------------------------


def test_kernel_error_propagates_across_processes():
    def boom(inputs, task):
        raise RuntimeError("numerical disaster")

    g = TaskGraph()
    g.add(Task("ok", node=0, kernel=kernel, out_nbytes={"v": 8}))
    # The bad task is on node 1; node 0 would wait forever on its
    # output if the abort did not travel back.
    g.add(Task("bad", node=1, inputs=(Flow("ok", "v", 8),), kernel=boom,
               out_nbytes={"v": 8}))
    g.add(Task("waiter", node=0, inputs=(Flow("bad", "v", 8),), kernel=kernel,
               out_nbytes={}))
    ex = ProcessExecutor(g, procs=2, jobs=1)
    with pytest.raises(KernelError, match="numerical disaster"):
        ex.run()
    assert_no_orphans(ex)


def test_silent_child_death_is_reported():
    def die(inputs, task):
        import os

        os._exit(3)  # no exception, no report: the process just vanishes

    g = TaskGraph()
    g.add(Task("doomed", node=1, kernel=die, out_nbytes={}))
    g.add(Task("other", node=0, kernel=kernel, out_nbytes={"v": 8}))
    g.add(Task("waiter", node=0, inputs=(Flow("other", "v", 8),),
               kernel=lambda i, t: time.sleep(0.2) or {}, out_nbytes={}))
    ex = ProcessExecutor(g, procs=2, jobs=1)
    # Depending on what the parent notices first, the diagnosis names
    # the dead process or its closed control pipe; both identify node 1.
    with pytest.raises(KernelError,
                       match="died without reporting|closed its control pipe"):
        ex.run()
    assert_no_orphans(ex)


def test_cancel_under_load_leaves_no_orphans():
    started = multiprocessing.get_context("fork").Event()
    ex = ProcessExecutor(cross_chain(400, delay=0.05, started=started),
                         procs=2, jobs=1)
    assert ex.cancel() is False  # not started: nothing to stop yet
    wait = run_on_thread(ex.run, 60)
    assert started.wait(60)  # the pipeline got going
    assert ex.cancel()
    with pytest.raises(RunCancelled):
        wait()
    assert ex.cancel() is False  # finished
    assert_no_orphans(ex)


def test_timeout_then_cancel_under_load():
    """A caller whose own timeout expires cancels the run at once,
    maybe while its nodes are still forking: the cancel reaches them."""
    ex = ProcessExecutor(cross_chain(400, delay=0.05), procs=2, jobs=1)
    wait = run_on_thread(ex.run, 60)
    while not ex.cancel():  # accepted from the moment run() starts
        os.sched_yield()
    with pytest.raises(RunCancelled):
        wait()
    assert_no_orphans(ex)


def test_stuck_kernel_is_forcibly_terminated(monkeypatch):
    """A kernel that ignores cancellation (stuck in C code, say) must
    not keep ``run()`` or the process alive forever."""
    monkeypatch.setattr("repro.exec.procs.JOIN_GRACE", 1.0)

    started = multiprocessing.get_context("fork").Event()

    def stuck(inputs, task):
        started.set()
        time.sleep(120)
        return {}

    g = TaskGraph()
    g.add(Task("stuck", node=0, kernel=stuck, out_nbytes={}))
    ex = ProcessExecutor(g, procs=1, jobs=1)
    wait = run_on_thread(ex.run, 30)
    assert started.wait(60)
    assert ex.cancel()
    with pytest.raises(RunCancelled):
        wait()
    assert_no_orphans(ex)


# -- validation and the single run -------------------------------------


def test_default_procs_covers_used_nodes():
    assert default_procs(cross_diamond()) == 2
    assert default_procs(TaskGraph()) == 1
    ex = ProcessExecutor(cross_diamond(), jobs=1)
    assert ex.procs == 2
    report = ex.run()
    assert report.results[("d", "v")] == 7.0


def test_validation_errors():
    with pytest.raises(ValueError, match="at least one process"):
        ProcessExecutor(cross_diamond(), procs=0)
    with pytest.raises(ValueError, match="node 1 but only 1"):
        ProcessExecutor(cross_diamond(), procs=1)
    with pytest.raises(ValueError, match="worker thread"):
        ProcessExecutor(cross_diamond(), procs=2, jobs=0)


def test_timing_only_graph_rejected():
    g = TaskGraph()
    g.add(Task("p", node=0, out_nbytes={"x": 8}))
    g.add(Task("c", node=1, inputs=(Flow("p", "x", 8),)))
    with pytest.raises(ValueError, match="with_kernels=True"):
        ProcessExecutor(g, procs=2)


def test_executor_is_single_shot():
    ex = ProcessExecutor(cross_diamond(), procs=2, jobs=1)
    ex.run()
    with pytest.raises(RuntimeError, match="exactly once"):
        ex.run()


def test_silent_child_death_raises_typed_node_lost_error():
    """Regression: a vanished child must surface as NodeLostError (not
    a bare KernelError) carrying the lost node id, so recovery layers
    can repartition without parsing message text."""
    from repro.exec import NodeLostError

    def die(inputs, task):
        import os

        os._exit(3)

    g = TaskGraph()
    g.add(Task("doomed", node=1, kernel=die, out_nbytes={}))
    g.add(Task("other", node=0, kernel=kernel, out_nbytes={"v": 8}))
    ex = ProcessExecutor(g, procs=2, jobs=1)
    with pytest.raises(NodeLostError) as info:
        ex.run()
    assert info.value.node == 1
    assert info.value.checkpoint_step is None  # no store attached
    assert_no_orphans(ex)


def test_node_lost_error_reports_last_checkpoint(tmp_path):
    """With a checkpoint store attached, the error names the sweep a
    recovery can restart from."""
    import numpy as np

    from repro.chaos import CheckpointStore
    from repro.exec import NodeLostError

    store = CheckpointStore(tmp_path)
    store.ensure_meta(shape=(2, 2))
    store.save(5, 0, 0, np.zeros((2, 2)))

    def die(inputs, task):
        import os

        os._exit(3)

    g = TaskGraph()
    g.add(Task("doomed", node=1, kernel=die, out_nbytes={}))
    ex = ProcessExecutor(g, procs=2, jobs=1)
    ex.checkpoint_store = store
    with pytest.raises(NodeLostError) as info:
        ex.run()
    assert info.value.node == 1
    assert info.value.checkpoint_step == 5
    assert_no_orphans(ex)
