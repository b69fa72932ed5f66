"""The shared-memory halo channels of the processes backend.

``tests/test_procs_executor.py`` and ``tests/test_procs_messages.py``
pin what the backend promises from outside (routing, failure
containment, census equality); this suite pins the channel protocol
itself: ring wrap-around, the outbox that keeps a worker from blocking
on a full ring, the record encodings and the private-copy payload
contract, the oversized-record error, the absence of any communication
thread, the single doorbell sleeper, live progress from the shared
header, and -- because the rings are anonymous shared mappings -- that
killing nodes mid-traffic, or the parent itself, leaks nothing.
"""

from __future__ import annotations

import gc
import mmap
import multiprocessing
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.chaos import ChaosContext, parse_plan
from repro.chaos.inject import FaultInjector
from repro.core.runner import run
from repro.distgrid.partition import ProcessGrid
from repro.exec import (
    NodeLostError,
    ProcessExecutor,
    execute,
    execute_procs,
    fork_available,
    procs,
)
from repro.machine.machine import nacl
from repro.obs.monitor import format_sample
from repro.runtime.engine import KernelError
from repro.runtime.graph import TaskGraph
from repro.runtime.task import READY, Flow, Task

from .conftest import random_problem, run_on_thread
from .test_procs_executor import assert_no_orphans, cross_chain, kernel

pytestmark = [
    pytest.mark.skipif(not fork_available(), reason="needs POSIX fork"),
    pytest.mark.timeout(300),
]

FORK = multiprocessing.get_context("fork") if fork_available() else None


def assert_same_results(got: dict, want: dict) -> None:
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.array_equal(got[key], value), key


# -- (a) wrap-around, (b) the outbox ------------------------------------------


def test_chain_traffic_wraps_a_tiny_ring_many_times(monkeypatch):
    monkeypatch.setattr(procs, "RING_BYTES", 256)
    n = 400
    graph = cross_chain(n)
    report = execute_procs(graph, procs=2, jobs=1)
    assert_same_results(report.results, execute(cross_chain(n), jobs=1).results)
    assert report.messages == graph.census().remote_messages == n - 1
    # Two rings of 256 bytes each carried >= 20x their capacity.
    assert report.wire_bytes / 2 >= 20 * 256


def test_stencil_strips_wrap_mid_record(monkeypatch):
    """A stencil's 64-byte strips land in their consumers' slots and
    only 16-byte ready records cross the 256-byte rings, so no record
    wraps any more (pickled payloads still do:
    ``test_chain_traffic_wraps_a_tiny_ring_many_times``).  What stays is
    the stress case: a 3x2 process grid with two workers per node (12
    threads on this host's 2 cores) switching threads every 10 us (the
    forked nodes inherit the interval), full rings and a busy outbox --
    a lost or doubled record, or a slot read before its record arrived,
    would change the grid or the counts."""
    monkeypatch.setattr(procs, "RING_BYTES", 256)
    problem = random_problem(n=48, iterations=24, ncols=32)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        result = run(problem, impl="base-parsec", machine=nacl(6), tile=8,
                     backend="processes", procs=6, jobs=2, pgrid=ProcessGrid(3, 2))
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(result.grid, problem.reference_solution())
    census = result.graph.census()
    assert result.messages == census.remote_messages
    assert result.engine.by_pair == census.by_pair
    assert min(96 * count for count, _ in census.by_pair.values()) >= 10 * 256


def test_bursts_larger_than_the_ring_do_not_deadlock(monkeypatch):
    """Each node emits 40 KiB towards a 4 KiB ring before it consumes
    anything: no worker may block, the outbox drains as the peer reads."""
    monkeypatch.setattr(procs, "RING_BYTES", 4096)
    count, strip = 40, np.arange(128.0)

    def burst(inputs, task):
        return {f"s{k}": strip + k for k in range(count)}

    def total(inputs, task):
        return {"sum": float(sum(v.sum() for v in inputs.values()))}

    g = TaskGraph()
    for node in (0, 1):
        g.add(Task(("burst", node), node=node, kernel=burst,
                   out_nbytes={f"s{k}": 1024 for k in range(count)}))
    for node in (0, 1):
        g.add(Task(("total", node), node=node, kernel=total, out_nbytes={},
                   inputs=tuple(Flow(("burst", 1 - node), f"s{k}", 1024)
                                for k in range(count))))
    report = run_on_thread(lambda: execute_procs(g, procs=2, jobs=1), 60)()
    want = float(sum((strip + k).sum() for k in range(count)))
    assert report.results == {(("total", 0), "sum"): want, (("total", 1), "sum"): want}
    assert report.messages == 2 * count


# -- (c) encodings and the payload contract, (d) oversized records --------------


def test_every_payload_kind_crosses_intact_as_a_private_copy():
    base = np.arange(24.0).reshape(4, 6)
    payloads = {"float": 2.5, "tuple": (1, "two", 3.0), "matrix": base.copy(),
                "vector": np.arange(7.0), "strided": base[:, ::2],
                "ints": np.arange(5), "empty": np.empty((0, 3))}

    def produce(inputs, task):
        return dict(payloads)  # no "ctl": a control edge carries None

    def consume(inputs, task):
        got = {tag: value for (_producer, tag), value in inputs.items()}
        arrays = [v for v in got.values() if isinstance(v, np.ndarray)]
        owners = []
        for array in arrays:
            while array is not None:  # the .base chain
                owners.append(array)
                array = getattr(array, "base", None)
        return {"echo": got,
                "writeable": [a.flags.writeable for a in arrays],
                "shared": [type(o).__name__ for o in owners
                           if isinstance(o, (mmap.mmap, memoryview))]}

    g = TaskGraph()
    g.add(Task("p", node=0, kernel=produce,
               out_nbytes={tag: getattr(v, "nbytes", 8) for tag, v in payloads.items()}))
    g.add(Task("c", node=1, kernel=consume, out_nbytes={},
               inputs=tuple(Flow("p", tag, 0) for tag in (*payloads, "ctl"))))
    results = execute_procs(g, procs=2, jobs=1).results
    echo = results[("c", "echo")]
    assert echo.pop("ctl") is None
    assert_same_results(echo, payloads)
    assert echo["tuple"] == payloads["tuple"] and echo["ints"].dtype == np.arange(5).dtype
    assert results[("c", "writeable")] == [False] * 5
    assert results[("c", "shared")] == []


def test_pickled_payloads_keep_one_record_per_entry():
    """Only an edge of ready tokens is one record.  A producer that
    sends node 1 two tokens, an array, then a token sends it four
    records, a pickled array or a header-only token each; node 2 gets
    one record, its array; node 3, two tokens, one."""
    strip = np.arange(4.0)

    def produce(inputs, task):
        return {"a": READY, "b": READY, "c": strip, "d": READY, "e": strip + 1}

    def consume(inputs, task):
        return {"got": {tag: value for (_producer, tag), value in inputs.items()}}

    g = TaskGraph()
    g.add(Task("p", node=0, kernel=produce, out_nbytes=dict.fromkeys("abcde", 32)))
    g.add(Task("c", node=1, kernel=consume, out_nbytes={},
               inputs=tuple(Flow("p", tag, 32) for tag in "abcd")))
    g.add(Task("f", node=2, kernel=consume, out_nbytes={}, inputs=(Flow("p", "e", 32),)))
    g.add(Task("h", node=3, kernel=consume, out_nbytes={},
               inputs=(Flow("p", "a", 32), Flow("p", "b", 32))))
    report = execute_procs(g, procs=4, jobs=1, trace=True)
    got = report.results[("c", "got")]
    assert [got[tag] for tag in "abd"] == [READY] * 3
    assert np.array_equal(got["c"], strip)
    assert np.array_equal(report.results[("f", "got")]["e"], strip + 1)
    assert report.results[("h", "got")] == {"a": READY, "b": READY}
    assert report.messages == 7
    sends = sorted(span.label[1:] for span in report.trace.spans if span.kind == "send")
    assert sends == [(("a",), 1), (("a", "b"), 3), (("b",), 1), (("c",), 1), (("d",), 1),
                     (("e",), 2)]
    body = procs._record_bytes(procs._encode(0, 1, strip)[1])
    assert report.wire_by_pair == {(0, 1): 3 * 16 + body, (0, 2): body, (0, 3): 16}


def test_oversized_payload_fails_the_run_naming_the_message():
    def liar(inputs, task):
        return {"x": np.zeros(40_000)}  # 320 kB behind a declared 8 bytes: over a ring

    g = TaskGraph()
    g.add(Task("liar", node=0, kernel=liar, out_nbytes={"x": 8}))
    g.add(Task("c", node=1, inputs=(Flow("liar", "x", 8),), kernel=kernel,
               out_nbytes={}))
    ex = ProcessExecutor(g, procs=2, jobs=1)
    with pytest.raises(KernelError,
                       match=r"'liar' sent 320000 bytes for tag 'x' but declared 8"):
        run_on_thread(ex.run, 60)()
    assert_no_orphans(ex)


# -- (f) no comm thread, (g) one doorbell sleeper --------------------------------


def test_a_node_process_has_no_communication_thread():
    def census(inputs, task):
        time.sleep(0.05)  # let the pool finish starting its threads
        return {"threads": sorted(t.name for t in threading.enumerate())}

    g = TaskGraph()
    g.add(Task("p", node=0, kernel=kernel, out_nbytes={"v": 8}))
    g.add(Task("c", node=1, inputs=(Flow("p", "v", 8),), kernel=census,
               out_nbytes={}))
    report = execute_procs(g, procs=2, jobs=2)
    assert report.messages == 1  # the census ran after a message arrived
    assert report.results[("c", "threads")] == [
        "MainThread", "repro-exec-1", "repro-procs-control"]


class CountingDoorbell:
    """A node's doorbell semaphore that counts who sleeps on it."""

    def __init__(self, semaphore) -> None:
        self.semaphore = semaphore
        self.lock = threading.Lock()
        self.sleepers = self.peak = 0

    def acquire(self, *args, **kwargs):
        with self.lock:
            self.sleepers += 1
            self.peak = max(self.peak, self.sleepers)
        try:
            return self.semaphore.acquire(*args, **kwargs)
        finally:
            with self.lock:
                self.sleepers -= 1

    def release(self) -> None:
        self.semaphore.release()


def test_exactly_one_idle_worker_sleeps_on_the_doorbell():
    """Node 1 of a two-node graph, run in this process with three
    workers and nothing to do until node 0 (played by the test) sends."""
    g = TaskGraph()
    g.add(Task("p", node=0, kernel=kernel, out_nbytes={"v": 8}))
    for i in range(3):
        g.add(Task(("c", i), node=1, inputs=(Flow("p", "v", 8),), kernel=kernel,
                   out_nbytes={}))
    g.finalize()
    channels = procs._Channels(2, FORK, procs.RING_BYTES)
    bell = channels.doorbells[1] = CountingDoorbell(channels.doorbells[1])
    node1 = procs._NodeExecutor(g, 1, channels, jobs=3, policy="lifo", trace=False)
    wait = run_on_thread(node1.run, 10)

    def one_sleeper() -> bool:
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline and bell.sleepers != 1:
            time.sleep(0.001)  # (0 for an instant at each hand-over)
        return bell.sleepers == 1

    # Several doorbell timeouts: the role is handed on, never doubled.
    assert one_sleeper()
    time.sleep(3 * procs._POLL)
    assert one_sleeper() and bell.peak == 1
    assert node1._unfinished == 3  # still waiting for node 0's record
    fields, body = procs._encode(0, 1, 2.0)
    assert channels.rings[0, 1].put(fields, body, procs._record_bytes(body))
    bell.release()
    report = wait()
    assert report.completed == {("c", 0), ("c", 1), ("c", 2)}
    assert bell.peak == 1


# -- live progress from the shared header ------------------------------------------


def test_progress_reads_live_task_and_message_counts():
    graph = cross_chain(40, delay=0.01)
    ex = ProcessExecutor(graph, procs=2, jobs=1)
    census = graph.census().remote_messages
    assert ex.progress()["done"] == 0
    wait = run_on_thread(ex.run, 60)
    mid, sample, deadline = None, ex.progress(), time.monotonic() + 60
    while mid is None and sample["done"] < sample["total"] and time.monotonic() < deadline:
        sample = ex.progress()
        # (the first task's done word lands before its message's count)
        if 0 < sample["done"] < sample["total"] and sample["messages"]:
            mid = sample
        time.sleep(0.002)
    wait()
    assert mid is not None and 0 < mid["messages"] < census
    assert "tasks " in format_sample(mid, census) and "msgs " in format_sample(mid, census)
    final = ex.progress()
    assert final["done"] == final["total"] == 40
    assert final["messages"] == census == 39
    assert "tasks 40/40" in format_sample(final, census)
    assert "msgs 39/39" in format_sample(final, census)
    time.sleep(0.02)
    assert ex.progress()["elapsed_s"] == final["elapsed_s"]  # frozen at the end


# -- (e) kills mid-traffic, parent death: nothing hangs, nothing leaks ----------------


def _footprint() -> tuple:
    """/dev/shm entries, open fds, shared mappings (the ring region
    shows as ``/dev/zero``, a lock or doorbell as ``/dev/shm/sem.*``)
    and the total number of mappings of this process."""
    gc.collect()
    with open("/proc/self/maps") as maps:
        lines = maps.readlines()
    shared = [line for line in lines if "/dev/zero" in line or "/dev/shm" in line]
    return sorted(os.listdir("/dev/shm")), len(os.listdir("/proc/self/fd")), shared, len(lines)


def _launched(ex: ProcessExecutor, started) -> None:
    """The pipeline got going, and ``ex.processes`` lists every node
    (``run()`` publishes them once the last one is forked)."""
    assert started.wait(30)
    while len(ex.processes) < ex.procs:
        os.sched_yield()


def _kill_one_node_mid_traffic() -> None:
    started = FORK.Event()
    ex = ProcessExecutor(cross_chain(120, delay=0.005, started=started),
                         procs=2, jobs=1)
    wait = run_on_thread(ex.run, 30)
    _launched(ex, started)
    time.sleep(0.002)  # messages are flowing both ways
    t0 = time.monotonic()
    os.kill(ex.processes[1].pid, signal.SIGKILL)
    with pytest.raises(NodeLostError) as info:
        wait()
    assert info.value.node == 1
    assert time.monotonic() - t0 < procs.JOIN_GRACE + 2
    assert ex.progress()["done"] < 120
    assert_no_orphans(ex)


def test_sigkill_mid_traffic_twenty_times_leaks_nothing():
    _kill_one_node_mid_traffic()  # thread stacks reach their steady state
    *before, mappings = _footprint()
    for _ in range(20):
        _kill_one_node_mid_traffic()
    *after, mappings_after = _footprint()
    assert after == before
    # The allocator may map an arena meanwhile; a leak would be >= 1 per run.
    assert mappings_after - mappings < 20


def _pid_running(pid: int) -> bool:
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


def test_parent_death_unwinds_the_node_processes():
    """EOF on a node's control pipe means the parent died: the nodes
    stop instead of running (or waiting on each other) headless."""

    def doomed_parent(conn):
        started = FORK.Event()
        ex = ProcessExecutor(cross_chain(500, delay=0.05, started=started),
                             procs=2, jobs=1)
        run_on_thread(ex.run, 60)
        _launched(ex, started)
        conn.send([p.pid for p in ex.processes])
        os._exit(0)  # no cleanup at all

    reader, writer = FORK.Pipe(duplex=False)
    parent = FORK.Process(target=doomed_parent, args=(writer,))
    parent.start()
    # A doomed parent that fails before it sends fails the test, not hangs it.
    assert reader.poll(30), f"the doomed parent sent no pids (exit code {parent.exitcode})"
    pids = reader.recv()
    parent.join(30)
    assert parent.exitcode == 0 and len(pids) == 2
    deadline = time.monotonic() + procs.JOIN_GRACE + 2
    while time.monotonic() < deadline and any(map(_pid_running, pids)):
        time.sleep(0.01)
    assert not any(map(_pid_running, pids))


# -- (i) chaos drop: one record late, same answer ---------------------------------


def plan_edges(graph) -> list[tuple]:
    """``(producer, dst, tags, messages)`` of every edge of ``graph``:
    what one producer task sends one node, one record naming its flows
    there, which stand for ``messages`` entries of the message plan."""
    out: dict[tuple, dict] = {}
    for task in graph:
        for flow in task.inputs:
            if graph[flow.producer].node != task.node:
                out.setdefault((flow.producer, task.node), {})[flow.tag] = len(flow.messages)
    return [(producer, dst, tuple(tags), sum(tags.values()))
            for (producer, dst), tags in out.items()]


def test_chaos_drop_delays_exactly_the_matched_message():
    """The message the fault matches goes late with the rest of its
    record: the one record its producer sends node 1, strips and all."""
    problem = random_problem(n=24, iterations=6)
    knobs = dict(impl="base-parsec", machine=nacl(2), tile=6, backend="processes",
                 procs=2, jobs=1, trace=True)
    clean = run(problem, **knobs)
    plan = parse_plan("drop:src=0,dst=1,step=3,secs=0.3", seed=0)
    dropped = run(problem, chaos=ChaosContext(FaultInjector(plan, s=1)), **knobs)
    assert np.array_equal(dropped.grid, clean.grid)
    assert dropped.messages == clean.messages == clean.graph.census().remote_messages
    spans = dropped.trace.spans
    produced = {s.task_id: s.end for s in spans if s.worker >= 0}
    sends = sorted((s for s in spans if s.kind == "send"),
                   key=lambda s: s.start - produced[s.task_id])
    assert len(sends) == len(plan_edges(dropped.graph)) < dropped.messages
    late = sends[-1]
    assert late.start - produced[late.task_id] >= 0.3
    assert sends[-2].start - produced[sends[-2].task_id] < 0.15
    producer, tags, dst = late.label
    assert (late.node, dst, producer[-1] + 1) == (0, 1, 3)
    assert (producer, dst, tags, 4) in plan_edges(dropped.graph)


def test_a_dropped_record_releases_its_whole_edge_at_once():
    """CA on a 2x2 grid: a drop on the route 0 -> 1 holds back the one
    record of the matched producer's edge to node 1, strips and corner.
    It is received once, and every task on node 1 that waits on one of
    its messages starts after that; the grid is bit-identical."""
    problem = random_problem(n=32, iterations=8)
    knobs = dict(impl="ca-parsec", machine=nacl(4), tile=8, steps=2, backend="processes",
                 procs=4, jobs=1, trace=True, pgrid=ProcessGrid(2, 2))
    clean = run(problem, **knobs)
    plan = parse_plan("drop:src=0,dst=1,step=4,secs=0.3", seed=0)
    dropped = run(problem, chaos=ChaosContext(FaultInjector(plan, s=2)), **knobs)
    assert np.array_equal(dropped.grid, clean.grid)
    assert dropped.messages == clean.graph.census().remote_messages
    spans = dropped.trace.spans
    produced = {s.task_id: s.end for s in spans if s.worker >= 0}
    late = [s for s in spans if s.kind == "send" and s.start - produced[s.task_id] >= 0.3]
    assert len(late) == 1
    producer, tags, dst = late[0].label
    assert (late[0].node, dst, producer[-1] + 1) == (0, 1, 4)
    assert any(edge[:3] == (producer, dst, tags) and edge[3] > 1
               for edge in plan_edges(dropped.graph))
    received = [s for s in spans if s.kind == "recv" and s.label[:2] == (producer, tags)]
    assert len(received) == 1 and received[0].node == 1
    waiting = [s for s in spans if s.worker >= 0 and s.node == 1 and any(
        flow.producer == producer and flow.tag in tags
        for flow in dropped.graph[s.task_id].inputs)]
    assert waiting and min(s.start for s in waiting) >= received[0].end
