"""Unit tests of the threaded executor: pool mechanics, the run
handle, cancellation, error propagation and the one ready queue."""

from __future__ import annotations

import dataclasses
import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.core.base_parsec import build_base_graph
from repro.exec import (
    ExecutionTimeout,
    RunCancelled,
    ThreadedExecutor,
    execute,
)
from repro.machine.machine import nacl
from repro.obs import MetricRegistry
from repro.runtime.engine import Engine, KernelError
from repro.runtime.graph import TaskGraph
from repro.runtime.scheduler import POLICIES, make_queue
from repro.runtime.task import Flow, Task

from .conftest import (
    assert_report_folds_match_graph,
    join_all,
    random_problem,
    small_stencil_graph,
)


def diamond_graph(results: list | None = None) -> TaskGraph:
    """a -> (b, c) -> d with real payloads flowing through."""

    def make(tag_out, delay=0.0):
        def kernel(inputs, task):
            if delay:
                time.sleep(delay)
            total = sum(v for v in inputs.values() if v is not None) or 1.0
            if results is not None:
                results.append(task.key)
            return {tag_out: total + 1.0}

        return kernel

    g = TaskGraph()
    g.add(Task("a", node=0, kernel=make("x"), out_nbytes={"x": 8}))
    g.add(Task("b", node=0, inputs=(Flow("a", "x", 8),), kernel=make("y"),
               out_nbytes={"y": 8}))
    g.add(Task("c", node=0, inputs=(Flow("a", "x", 8),), kernel=make("z"),
               out_nbytes={"z": 8}))
    g.add(Task("d", node=0,
               inputs=(Flow("b", "y", 8), Flow("c", "z", 8)),
               kernel=make("w"), out_nbytes={"w": 8}))
    return g


def chain_graph(n: int = 20) -> TaskGraph:
    def kernel(inputs, task):
        val = sum(v for v in inputs.values() if v is not None)
        return {"v": val + 1.0}

    g = TaskGraph()
    g.add(Task(0, node=0, kernel=kernel, out_nbytes={"v": 8}))
    for i in range(1, n):
        g.add(Task(i, node=0, inputs=(Flow(i - 1, "v", 8),), kernel=kernel,
                   out_nbytes={"v": 8}))
    return g


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_diamond_runs_and_routes_payloads(jobs, policy):
    report = execute(diamond_graph(), jobs=jobs, policy=policy)
    assert report.tasks_run == 4
    assert report.completed == {"a", "b", "c", "d"}
    # a=2, b=c=3, d=7: payloads really flowed producer -> consumer.
    assert report.results[("d", "w")] == 7.0
    assert report.jobs == jobs
    assert report.elapsed > 0


@pytest.mark.parametrize("jobs", [1, 2, 4])
@pytest.mark.parametrize("policy", sorted(POLICIES))
@pytest.mark.parametrize("make_graph",
                         [diamond_graph, chain_graph, small_stencil_graph])
def test_report_tallies_are_folds_of_the_lanes(make_graph, policy, jobs):
    graph = make_graph()
    report = execute(graph, jobs=jobs, policy=policy, metrics=MetricRegistry())
    assert_report_folds_match_graph(graph, report)


def test_dependency_order_respected():
    order: list = []
    execute(diamond_graph(order), jobs=4)
    assert order.index("a") == 0
    assert order.index("d") == 3


def test_chain_serialises_even_with_many_workers():
    report = execute(chain_graph(30), jobs=4)
    assert report.results[(29, "v")] == 30.0


def test_terminal_outputs_kept_intermediates_freed():
    g = diamond_graph()
    ex = ThreadedExecutor(g, jobs=2)
    report = ex.run()
    # Only d's output is terminal; the store drained completely.
    assert set(report.results) == {("d", "w")}
    assert len(ex._store) == 0


def test_worker_busy_and_occupancy_accounting():
    report = execute(diamond_graph(), jobs=2)
    assert set(report.worker_busy) == {0, 1}
    assert 0 <= report.worker_occupancy <= 1
    assert report.node_busy[0] == pytest.approx(sum(report.worker_busy.values()))


def test_kernel_error_propagates_with_task_identity():
    def boom(inputs, task):
        raise RuntimeError("numerical disaster")

    g = TaskGraph()
    g.add(Task("ok", node=0, kernel=lambda i, t: {"x": 1.0}, out_nbytes={"x": 8}))
    g.add(Task("bad", node=0, inputs=(Flow("ok", "x", 8),), kernel=boom))
    with pytest.raises(KernelError, match="'bad'.*numerical disaster"):
        execute(g, jobs=2)


@pytest.mark.parametrize("backend", ["sim", "threads"])
def test_kernel_error_keeps_the_kernels_traceback(backend):
    g = TaskGraph()
    g.add(Task("bad", node=0, kernel=lambda i, t: {"x": 1 / 0}, out_nbytes={}))
    with pytest.raises(KernelError) as caught:
        if backend == "sim":
            Engine(g, nacl(1), execute=True).run()
        else:
            execute(g, jobs=1)
    assert isinstance(caught.value.__cause__, ZeroDivisionError)


def test_timing_only_graph_rejected():
    g = TaskGraph()
    g.add(Task("p", node=0, out_nbytes={"x": 8}))
    g.add(Task("c", node=0, inputs=(Flow("p", "x", 8),)))
    with pytest.raises(ValueError, match="with_kernels=True"):
        ThreadedExecutor(g, jobs=1)


def test_invalid_jobs_and_policy_rejected():
    g = diamond_graph()
    with pytest.raises(ValueError, match="worker thread"):
        ThreadedExecutor(g, jobs=0)
    with pytest.raises(ValueError, match="unknown policy 'round-robin'.*'fifo'"):
        ThreadedExecutor(g, policy="round-robin")


def test_one_default_policy():
    """A direct executor schedules like ``run()``: the default policy is
    named once (``runtime/scheduler.py``) and every front door uses it."""
    import inspect

    from repro.core.config import RunConfig
    from repro.exec import ProcessExecutor, execute_procs
    from repro.runtime.scheduler import DEFAULT_POLICY

    assert RunConfig().policy == DEFAULT_POLICY == "priority"
    for front_door in (Engine, ThreadedExecutor, ProcessExecutor, execute,
                       execute_procs):
        default = inspect.signature(front_door).parameters["policy"].default
        assert default == DEFAULT_POLICY, front_door
    assert ThreadedExecutor(diamond_graph(), jobs=1).run().policy == DEFAULT_POLICY


def test_executor_is_single_shot():
    ex = ThreadedExecutor(diamond_graph(), jobs=1)
    ex.run()
    with pytest.raises(RuntimeError, match="exactly once"):
        ex.start()


def test_finished_executor_is_freed_without_the_cycle_collector():
    """Executors are one per run, so a finished one must not wait for
    the cycle collector: the handle lets go of it when the run ends."""
    gc.disable()
    try:
        ex = ThreadedExecutor(diamond_graph(), jobs=2)
        handle = ex.start()
        handle.result(timeout=30)
        # (the thread that finished the handle holds the executor
        # until it returns)
        assert join_all(t for t in threading.enumerate()
                        if t.name == "repro-exec-join") == []
        gone = weakref.ref(ex)
        del ex
        assert gone() is None
        assert handle.cancel() is False and handle.done()
    finally:
        gc.enable()


def test_result_timeout_without_cancel():
    gate = threading.Event()

    def slow(inputs, task):
        gate.wait(30)
        return {"x": 1.0}

    g = TaskGraph()
    g.add(Task("slow", node=0, kernel=slow, out_nbytes={}))
    handle = ThreadedExecutor(g, jobs=1).start()
    with pytest.raises(ExecutionTimeout):
        handle.result(timeout=0.05)
    assert handle.running()  # timeout does not cancel
    gate.set()
    report = handle.result(timeout=30)
    assert report.tasks_run == 1
    assert handle.done() and not handle.running()
    assert handle.exception() is None


def test_cancel_stops_remaining_work():
    started = threading.Event()
    release = threading.Event()

    def first(inputs, task):
        started.set()
        release.wait(30)
        return {"v": 1.0}

    def never(inputs, task):  # pragma: no cover - must not run
        return {"v": 2.0}

    g = TaskGraph()
    g.add(Task("first", node=0, kernel=first, out_nbytes={"v": 8}))
    g.add(Task("second", node=0, inputs=(Flow("first", "v", 8),), kernel=never,
               out_nbytes={}))
    ex = ThreadedExecutor(g, jobs=1)
    assert ex.cancel() is False  # not started: nothing to stop yet
    handle = ex.start()
    started.wait(30)
    assert ex.cancel()  # the public stop a non-owner (the pool) uses
    release.set()
    with pytest.raises(RunCancelled):
        handle.result(timeout=30)
    assert isinstance(handle.exception(), RunCancelled)
    assert handle.cancel() is False and ex.cancel() is False  # finished


def test_outputs_published_read_only():
    seen = {}

    def producer(inputs, task):
        return {"x": np.ones(4)}

    def consumer(inputs, task):
        arr = inputs[("p", "x")]
        seen["writeable"] = arr.flags.writeable
        return {}

    g = TaskGraph()
    g.add(Task("p", node=0, kernel=producer, out_nbytes={"x": 32}))
    g.add(Task("c", node=0, inputs=(Flow("p", "x", 32),), kernel=consumer,
               out_nbytes={}))
    execute(g, jobs=2)
    assert seen["writeable"] is False


def test_one_worker_unless_asked():
    assert ThreadedExecutor(diamond_graph()).jobs == 1
    report = execute(diamond_graph())
    assert report.jobs == 1 and set(report.worker_busy) == {0}
    # One ready queue: nothing is ever stolen (see ExecReport.steals).
    assert report.steals == 0 and execute(diamond_graph(), jobs=4).steals == 0


def test_shared_queue_balances_load():
    """One seed fans out to 8 sleeping children: every worker of the
    pool finds them in the one ready queue (8 x 50 ms on 4 workers is
    two rounds, not eight)."""
    def nap(inputs, task):
        time.sleep(0.05)
        return {}

    g = TaskGraph()
    g.add(Task("seed", node=0, kernel=lambda i, t: {"x": 1.0}, out_nbytes={"x": 8}))
    for i in range(8):
        g.add(Task(i, node=0, inputs=(Flow("seed", "x", 8),), kernel=nap,
                   out_nbytes={}))
    report = execute(g, jobs=4)
    assert report.tasks_run == 9
    assert report.elapsed < 0.3
    assert sum(1 for busy in report.worker_busy.values() if busy >= 0.05) > 1


def replay(graph: TaskGraph, policy: str) -> list:
    """The order one worker runs ``graph`` in, by the queue alone."""
    ready, pending, release, order = make_queue(policy), {}, {}, []
    for task in graph:
        pending[task.key] = len(task.inputs)
        for flow in task.inputs:
            release.setdefault(flow.producer, []).append(task.key)
        if not task.inputs:
            ready.push(task)
    while ready:
        task = ready.pop()
        order.append(task.key)
        for consumer in release.get(task.key, ()):
            pending[consumer] -= 1
            if not pending[consumer]:
                ready.push(graph[consumer])
    return order


def base_3x3(machine) -> TaskGraph:
    """3 sweeps over 12 x 12 in tiles of 4: 3 x 3 tiles, as the paper's
    graph (one task per tile and sweep), with kernels."""
    return build_base_graph(random_problem(12, 3), machine, tile=4,
                            with_kernels=True).per_tile().graph


def measured_order(graph: TaskGraph, policy: str) -> list:
    trace = execute(graph, jobs=1, policy=policy, trace=True).trace
    return [span.task_id for span in trace.compute_spans()]


def test_one_worker_completes_in_queue_order():
    """With one worker a real run completes tasks in the order the
    policy's queue yields them -- a different order per policy (tiles
    placed over two nodes, so boundary tiles carry their priority)."""
    orders = set()
    for policy in sorted(POLICIES):
        graph = base_3x3(nacl(2))
        expected = replay(graph, policy)
        assert measured_order(graph, policy) == expected
        orders.add(tuple(expected))
    assert len(orders) == 3


@pytest.mark.parametrize("policy", sorted(POLICIES))
def test_one_worker_schedules_like_the_simulators_node(policy):
    """The parity the one queue is for: real order == the engine's on a
    one-node, one-worker machine == the queue's."""
    one = nacl(1)
    one = dataclasses.replace(one, node=dataclasses.replace(one.node, cores=1))
    graph = base_3x3(one)
    expected = replay(graph, policy)
    assert len(expected) == 9 * (3 + 1)
    simulated = Engine(graph, one, policy=policy, trace=True).run().trace
    assert [span.task_id for span in simulated.compute_spans()] == expected
    assert measured_order(graph, policy) == expected
