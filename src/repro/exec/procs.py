"""Multiprocess execution backend: halo exchange over shared-memory rings.

Where :class:`~repro.exec.executor.ThreadedExecutor` runs a whole task
graph inside one address space (so "communication" is a pointer hand
over), this backend makes the paper's cost observable: every simulated
cluster *node* becomes a real OS process that owns exactly the tasks
placed on that node, and every node-boundary ghost flow becomes a real
message -- a record one process writes into a shared-memory ring and
another takes out.  The base-vs-CA message-count gap is therefore
measured, not modelled: CA sends ~``s``x fewer messages for the same
problem.  A stencil's strip travels outside the ring: its producer
writes it straight into the consumer's landing slot, which the build
maps before the fork next to the result grid
(:mod:`repro.core.dataflow`), and the flow's payload is the token
:data:`~repro.runtime.task.READY`.  What a producer task sends one node
-- an *edge*: every strip and corner it wrote into that node's slots,
on one flow per consumer task there -- becomes ready at once, so the
ring carries one header-only *ready* record per edge, naming its flows:
as persistent MPI's ``MPI_Pready`` marks a partition ready, one mark for
the partitions that are ready together.

Channels.  The channels are laid out before the nodes are forked
(:class:`_Channels`): one single-producer/single-consumer byte ring of
:data:`RING_BYTES` per ordered node pair, inside one anonymous shared
``mmap`` the children inherit -- no name, no resource tracker, nothing
to unlink: the kernel frees it with the last process that maps it, on
every exit path.  With the rings come a process-shared lock per ring, a
semaphore *doorbell* per node and a few header words per node (abort
flag, tasks done, messages sent).  A pool's channels serve every run it
takes; each node reads its run's :meth:`TaskGraph.message_plan` into
the edges it sends and receives (:func:`_plan_index`).  Only a one-shot graph whose
plan declares a message over a quarter of a ring gets larger rings:
four times its largest message (:func:`_ring_bytes`).

No communication thread.  A send is a record of a few bytes -- shorter
than one thread hand-off -- so the worker that ran the producing task
writes its records itself (:meth:`_NodeExecutor._send_remote`) and posts
each destination's doorbell once, and a worker looking for its next task
first takes whatever arrived out of its node's inbound rings and
releases every consumer of a record's entries at once
(:meth:`_NodeExecutor._poll`); ``comm_busy`` is worker time.  A worker
never blocks on a full ring: the record waits in the node's *outbox*
(as does one a chaos ``drop`` fault delays), retried wherever rings are
polled and before the node reports ``done``.  A node with nothing to
run but remote inputs outstanding has exactly one idle worker asleep on
its doorbell, outside the executor lock; the others sleep on the pool's
condition as in the threads backend.  Any other payload is pickled
into a record of its own and unpickled out of it, a private copy: no
view into a ring ever reaches a kernel or the payload store.

Visibility.  Ring bytes and the ``head``/``tail`` counters are read and
written for effect only under the ring's lock, whose acquire/release
are the fences: what a producer stored before releasing is visible to
the consumer that acquires next, and a consumer's ``tail`` to the
producer before it reuses the bytes.  The unlocked peek ``head !=
tail`` decides *whether* to take the lock, never *what* is read: a
stale "empty" costs a delay the doorbell bounds (posted after the
release, and semaphore operations synchronise too), a stale
"non-empty" one lock round-trip.  The same fences order a landing
slot: its producer writes the strip before it puts the ready record,
and the consumer reads the slot after it took the record.  Nothing
rests on a CPU's store ordering.  Lock order is executor lock -> ring
lock, never the reverse, and every wait on a shared primitive is
bounded by ``_POLL``, so a peer killed mid-write cannot hang anyone.

Roles.  The parent forks the children (channels inherited, and a
one-shot node's graph copy-on-write; only statistics and terminal
results are pickled -- of a stencil graph one token per final task:
final cores land in the build's shared result grid) and, on the
thread that called ``run()``, watches one control pipe per child until
every node reported.  Each child runs a
:class:`_NodeExecutor` -- a :class:`ThreadedExecutor` restricted to the
node's tasks, plus the send/poll hooks -- and one *control* thread, the
pipe's one reader (a run's description, ``cancel``, ``close``; EOF =
the parent died), idle for all of a healthy run.  A failing node sets every peer's abort word, posts every doorbell
and reports to the parent, which cancels everyone, so
:class:`~repro.runtime.report.KernelError` crosses the process boundary
without deadlocking anyone; stragglers are terminated after a grace
period so no orphan survives.

Pools.  A run whose graph a node can rebuild from a description is
always dispatched to a pool's nodes (:mod:`repro.exec.pools`), never
inherited: the idle pool of its ``(procs, jobs)``, or nodes forked bare
for it.  Each node gets, down its control pipe, the template key and
pickled problem, the knobs and the graph's plan digest, and beside them
on the same socket the memfd of the build's grid-and-landing mapping
(:class:`~repro.core.recipe.Recipe`); it rebuilds the graph from its
inherited templates, refuses it if the digest differs, maps the memfd,
runs, reports, then drops the graph and unmaps the memfd
(:func:`_run_described`).  A bare node first lets go of every build it
inherited -- its copies of their memfds closed, anonymous pages mapped
over their grids (:func:`~repro.core.recipe.release_builds`) -- so an
idle node holds no grid.  Any other graph forks one-shot nodes that
inherit it, run it and exit.

Accounting.  Workers write every remote flow once per destination,
and a record counts the plan messages its flows stand for, so
per-pair message counts and *declared* payload bytes equal
:meth:`TaskGraph.census` by construction; ring bytes (record headers
plus any pickled body: a stencil's ready records are headers alone, 16
bytes an edge) are tallied apart as ``wire_bytes``.  A node keeps
running tallies (messages, declared and ring bytes per destination,
busy seconds) and ships them home once, in its ``("done", stats)``
message; the parent builds the report from those and an attached
registry is a fold of that report -- no registry exists in a child.  A
traced node also ships one send and one recv span per record, on the
comm lanes of the standard :class:`~repro.runtime.trace.Trace` schema,
labelled ``(producer, tags, peer)``.
"""

from __future__ import annotations

import bisect
import ctypes
import functools
import gc
import mmap
import multiprocessing as mp
import os
import pickle
import queue
import struct
import sys
import threading
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from multiprocessing.connection import wait as conn_wait
from multiprocessing.reduction import recv_handle

import numpy as np

from ..obs import trace_validation_enabled
from ..obs.export import build_trace
from ..obs.metrics import MetricRegistry, publish_run
from ..runtime.report import KernelError, NodeLostError, RunCancelled
from ..runtime.graph import TaskGraph
from ..runtime.scheduler import DEFAULT_POLICY
from ..runtime.task import READY, Flow, Task, TaskKey
from ..runtime.trace import Trace
from .executor import ExecReport, ThreadedExecutor, ensure_executable
from .pools import _POOLS, IDLE_CLOSE, JOIN_GRACE, _Pool, close_pools

#: Trace lanes of a node's communication (compute workers are
#: ``0..jobs-1``; anything negative is a comm lane, as in the engine).
#: Workers send and receive under the executor lock: a lane is serial.
SEND_LANE = -1
RECV_LANE = -2

#: Bound of every wait on a shared primitive (doorbell, ring lock) and
#: of the parent's watch loop: the reaction time to a dead peer.
_POLL = 0.1

#: Doorbell timeout while the outbox is not empty: a consumer does not
#: signal that it made room, so the producer looks again.
_RETRY = 0.0005

#: Ring capacity per ordered node pair (bytes), unless a one-shot
#: graph's plan declares a message over a quarter of it.
#: Measured flat: halo_base / halo_ca solve_s (median of 9 interleaved
#: rounds, procs=2) 64 KiB 0.83 / 0.74 s, 256 KiB 0.83 / 0.73 s, 1 MiB
#: 0.81 / 0.73 s (16 KiB, all outbox: 0.82 / 0.73) -- a node runs at most
#: a sweep ahead, <= 64 / 132 KiB in flight; 256 KiB keeps the outbox idle.
RING_BYTES = 256 * 1024

#: Record header: first flow index, flow count and the byte length of
#: the pickled body that follows.  A body is one flow's payload; no
#: body is a ready record, :data:`READY` for each of its flows.
_HDR = struct.Struct("<qii")

#: int64 words per node / per ring in the shared header: one cache
#: line each, so one node's per-task stores do not bounce a peer's.
_LINE = 8
_ABORT, _DONE, _MESSAGES = range(3)  # a node's words
_HEAD, _TAIL = range(2)  # a ring's words: bytes ever written / read


def default_procs(graph: TaskGraph) -> int:
    """Process count when the caller does not choose one: one per node
    the graph places tasks on."""
    nodes = graph.nodes_used()
    return (max(nodes) + 1) if nodes else 1


def fork_available() -> bool:
    """The backend needs POSIX ``fork`` (the graph, with its closures
    and kernels, and the shared channels are inherited, not pickled)."""
    return "fork" in mp.get_all_start_methods()


@functools.cache
def _malloc_trim():
    return getattr(ctypes.CDLL(None), "malloc_trim", None)


def trim_heap() -> None:
    """Return the allocator's free heap pages to the kernel; call it
    once before forking.  A forked child counts every private page its
    parent has resident, and heap the parent already freed stays
    resident until trimmed (glibc ``malloc_trim(0)``: 0.03-0.25 ms
    over ten 1024^2 ``procs=2`` runs on a 2-core x86 host; a no-op
    where libc has none)."""
    trim = _malloc_trim()
    if trim is not None:
        trim(0)


@dataclass
class ProcsReport(ExecReport):
    """An :class:`ExecReport` measured across real processes.

    ``messages`` / ``message_bytes`` / ``by_pair`` count real
    inter-process messages -- what each node measured itself sending,
    never the plan -- with their census-declared payload sizes (so they
    are directly comparable to the simulator's numbers); ``wire_bytes``
    is what was actually written to the rings, record headers included.
    ``node_busy`` has one entry per process, so the inherited
    ``occupancy(jobs)`` averages worker busyness over every pool.
    """

    #: number of node processes that executed the graph
    procs: int = 0
    #: (src, dst) -> bytes written to that ring (payloads + headers)
    wire_by_pair: dict = field(default_factory=dict)
    #: (node, "send" | "recv") -> worker seconds spent writing /
    #: draining rings (``comm_busy[node]`` is their sum)
    comm_lanes: dict = field(default_factory=dict)

    @property
    def wire_bytes(self) -> int:
        """Bytes written to the shared-memory rings, all pairs."""
        return sum(self.wire_by_pair.values())

    @property
    def worker_occupancy(self) -> float:
        if self.elapsed <= 0 or self.jobs <= 0 or self.procs <= 0:
            return 0.0
        return sum(self.worker_busy.values()) / (
            self.procs * self.jobs * self.elapsed
        )


# ---------------------------------------------------------------------------
# shared channels
# ---------------------------------------------------------------------------


class _Ring:
    """One single-producer/single-consumer byte ring in the shared
    region.  ``head``/``tail`` count bytes ever written/read.  A record
    is its header plus the payload padded to whole header-sized slots
    and the capacity is a whole number of slots, so a header never
    straddles the wrap (a payload may: it is copied in two pieces) and
    a record fits whenever ``capacity - (head - tail)`` bytes are free."""

    def __init__(self, data: memoryview, words: memoryview, lock) -> None:
        self.data = data
        self.words = words  # this ring's header line: [_HEAD, _TAIL]
        self.capacity = len(data)
        self.lock = lock

    def pending(self) -> bool:
        """Unlocked peek: is it worth taking the lock to read?"""
        return self.words[_HEAD] != self.words[_TAIL]

    def put(self, fields: tuple, body, size: int) -> bool:
        """Append one record of ``size`` ring bytes; False when it does
        not fit right now (or the peer has held the lock for longer
        than ``_POLL``: it died)."""
        if not self.lock.acquire(timeout=_POLL):
            return False
        try:
            head = self.words[_HEAD]
            if size > self.capacity - (head - self.words[_TAIL]):
                return False
            data, pos = self.data, head % self.capacity
            _HDR.pack_into(data, pos, *fields)
            pos += _HDR.size
            first = self.capacity - pos
            if len(body) <= first:
                data[pos:pos + len(body)] = body
            else:
                data[pos:] = body[:first]
                data[:len(body) - first] = body[first:]
            self.words[_HEAD] = head + size
            return True
        finally:
            self.lock.release()

    def take(self):
        """Copy the oldest record out: ``(first plan index, entries,
        payload)``, or None when the ring is empty (or its lock is
        stuck)."""
        if not self.lock.acquire(timeout=_POLL):
            return None
        try:
            tail = self.words[_TAIL]
            if tail == self.words[_HEAD]:
                return None
            data, pos = self.data, tail % self.capacity
            first, count, length = _HDR.unpack_from(data, pos)
            payload, body = READY, bytearray(length)
            if length:
                pos += _HDR.size
                split = self.capacity - pos
                if length <= split:
                    body[:] = data[pos:pos + length]
                else:
                    body[:split] = data[pos:]
                    body[split:] = data[:length - split]
                payload = pickle.loads(body)
                if type(payload) is np.ndarray:
                    payload.setflags(write=False)  # as the payload store freezes outputs
            self.words[_TAIL] = tail + _record_bytes(body)
            return first, count, payload
        finally:
            self.lock.release()


def _record_bytes(body) -> int:
    """Ring bytes of a record: header slot + payload in whole slots."""
    return _HDR.size * (1 - (-len(body) // _HDR.size))


def _ready(payload) -> bool:
    return type(payload) is str and payload == READY


def _encode(first: int, count: int, payload) -> tuple[tuple, bytes]:
    """One record's header fields and body: none for :data:`READY` (a
    ready record for ``count`` flows: the data is where their
    consumers read it), a pickle of one flow's payload for anything
    else."""
    if _ready(payload):
        return (first, count, 0), b""
    body = pickle.dumps(payload, protocol=pickle.HIGHEST_PROTOCOL)
    return (first, 1, len(body)), body


def _records(tags: tuple, outputs: dict) -> list[tuple]:
    """One edge's flows as records, ``(offset, tags, payload)``: one
    ready record when every payload is :data:`READY`, else one each."""
    if all(_ready(outputs[tag]) for tag in tags):
        return [(0, tags, READY)]
    return [(k, (tag,), outputs[tag]) for k, tag in enumerate(tags)]


def _ring_bytes(graph: TaskGraph) -> int:
    """Ring capacity of a one-shot run of ``graph``: :data:`RING_BYTES`,
    unless a quarter of it would not hold the largest message the plan
    declares.  (A graph a pool runs sends ready records only.)"""
    largest = max((nbytes for messages in graph.message_plan().values()
                   for _tag, _dst, nbytes in messages), default=0)
    return max(RING_BYTES, 4 * largest)


def _plan_index(graph: TaskGraph, node: int) -> tuple[dict, list, list]:
    """``graph``'s remote flows as node ``node``'s records name them.
    Every node numbers them alike, producer by producer and each
    producer's by destination, so what a producer sends one node -- an
    *edge* -- is a run of consecutive indices.  A flow counts as the
    plan messages it stands for, sized as the plan declares them.
    Returns the edges ``node`` sends, producer -> ``[(dst, first index,
    flow tags, (messages, nbytes) per flow)]``, and the ones it
    receives, in order: their first indices, and ``(producer, tags)``."""
    flows: dict[TaskKey, dict[int, dict[str, Flow]]] = {}
    for task in graph:
        for flow in task.inputs:
            if graph[flow.producer].node != task.node:
                flows.setdefault(flow.producer, {}).setdefault(
                    task.node, {}).setdefault(flow.tag, flow)
    sends: dict[TaskKey, list[tuple]] = {}
    firsts: list[int] = []
    inbound: list[tuple[TaskKey, tuple]] = []
    index = 0
    for producer, edges in flows.items():
        mine = graph[producer].node == node
        size = {(tag, dst): n for tag, dst, n in graph.message_plan()[producer]} if mine else {}
        for dst, edge in sorted(edges.items()):
            if mine:
                sends.setdefault(producer, []).append((dst, index, tuple(edge), tuple(
                    (len(flow.messages), sum(size[tag, dst] for tag, _ in flow.messages))
                    for flow in edge.values())))
            elif dst == node:
                firsts.append(index)
                inbound.append((producer, tuple(edge)))
            index += len(edge)
    return sends, firsts, inbound


class _Channels:
    """Everything the node processes share, laid out before the fork:
    one ring of ``ring_bytes`` per ordered node pair, the doorbells and
    the header words.  A pool's channels serve every run it takes: the
    parent zeroes the words between runs (:meth:`reset`)."""

    def __init__(self, procs: int, ctx, ring_bytes: int) -> None:
        line = _LINE * 8
        pairs = [(src, dst) for src in range(procs) for dst in range(procs) if src != dst]
        capacity = -(-ring_bytes // line) * line
        self._header = header = (procs + len(pairs)) * line  # the words; the rings follow
        self.region = mmap.mmap(-1, header + len(pairs) * capacity)
        self._view = memoryview(self.region)
        self.words = self._view[:header].cast("q")
        self.rings = {
            pair: _Ring(self._view[header + k * capacity:header + (k + 1) * capacity],
                        self.words[(procs + k) * _LINE:(procs + k + 1) * _LINE],
                        ctx.Lock())
            for k, pair in enumerate(pairs)
        }
        self.doorbells = [ctx.Semaphore(0) for _ in range(procs)]

    def reset(self) -> None:
        """Between two runs of a pool, every node idle and every ring
        drained: zero the header words and take back the doorbell posts
        nobody waited for."""
        self._view[:self._header] = bytes(self._header)
        for doorbell in self.doorbells:
            while doorbell.acquire(False):
                pass

    def abort(self, by: int) -> None:
        """Node ``by`` failed: tell everyone to stop waiting."""
        for node, doorbell in enumerate(self.doorbells):
            self.words[node * _LINE + _ABORT] = by + 1
            doorbell.release()

    def tallies(self) -> tuple[int, int]:
        """(tasks done, messages sent) over all nodes, as of now."""
        end = len(self.doorbells) * _LINE
        return (sum(self.words[_DONE:end:_LINE]),
                sum(self.words[_MESSAGES:end:_LINE]))

    def close(self) -> None:
        """Unmap the region now (the parent's side; a child's goes with
        its process)."""
        for ring in self.rings.values():
            ring.words.release()
            ring.data.release()
        self.words.release()
        self._view.release()
        self.region.close()


# ---------------------------------------------------------------------------
# child side
# ---------------------------------------------------------------------------


class _NodeExecutor(ThreadedExecutor):
    """A :class:`ThreadedExecutor` that owns one node's tasks of a
    larger graph.  Its workers also move the node's messages: remote
    outputs leave through :meth:`_send_remote`, remote inputs arrive
    in :meth:`_poll`."""

    def __init__(
        self, graph: TaskGraph, node: int, channels: _Channels, jobs: int,
        policy: str, trace: bool, chaos=None,
    ) -> None:
        self.node = node
        self._local: list[Task] = [t for t in graph if t.node == node]
        #: the edges this node sends, and the ones it receives: a
        #: record's first flow index finds its edge by bisection
        self._sends, self._firsts, self._edges = _plan_index(graph, node)
        #: (producer, tag) -> local consumer keys (one entry per flow)
        self._remote_consumers: dict[tuple[TaskKey, str], list[TaskKey]] = {}
        self._channels = channels
        self._words = channels.words[node * _LINE:(node + 1) * _LINE]
        self._doorbell = channels.doorbells[node]
        self._inbound = [(src, ring) for (src, dst), ring
                         in channels.rings.items() if dst == node]
        self._outbound = {dst: ring for (src, dst), ring
                          in channels.rings.items() if src == node}
        #: optional fault-injection hook (repro.chaos): a matched
        #: message waits its retransmit delay in the outbox, modelling
        #: one dropped frame.  None pays nothing.
        self._chaos = chaos
        #: records waiting for their due time or for ring space: (due,
        #: label, messages, declared nbytes, header fields, body, ring bytes)
        self._outbox: list[tuple] = []
        #: a worker is asleep on the doorbell (at most one is)
        self._listening = False
        self._published = 0
        #: running tallies: dst -> [messages (plan entries), declared
        #: bytes, ring bytes], and worker seconds spent sending/receiving
        self.by_dst: dict[int, list[int]] = {}
        self.send_busy = self.recv_busy = 0.0
        #: traced only, one span per record sent / received, raw
        #: perf_counter stamps: (start, end, (producer, flow tags, peer))
        self.sent: list[tuple] = []
        self.received: list[tuple] = []
        super().__init__(graph, jobs=jobs, policy=policy, trace=trace)

    def _check_executable(self) -> None:
        pass  # the parent ran ensure_executable() once, before forking

    def _tasks(self) -> list[Task]:
        return self._local

    def _await(self, flow: Flow, task: Task) -> None:
        if self.graph[flow.producer].node == self.node:
            super()._await(flow, task)
        else:  # released by the payload's arrival, not a local publish
            self._remote_consumers.setdefault(
                (flow.producer, flow.tag), []
            ).append(task.key)

    # -- sending (under the executor lock) ---------------------------------

    def _send_remote(self, task: Task, outputs: dict) -> None:
        """One record per edge of ``task`` (its flows to one node),
        written by the worker that ran it -- a node-block task sends a
        neighbour one ready record for its one flow there, for every
        strip and corner it wrote into that node's slots; a payload
        other than :data:`READY` is pickled into a record of its own --
        then one doorbell per destination reached; also the node's live
        task tally.  Chaos is consulted once per record: a drop delays
        it whole."""
        self._published += 1
        self._words[_DONE] = self._published
        reached = set()
        for dst, first, tags, counts in self._sends.get(task.key, ()):
            for offset, run, payload in _records(tags, outputs):
                start = time.perf_counter()
                fields, body = _encode(first + offset, len(run), payload)
                size, capacity = _record_bytes(body), self._outbound[dst].capacity
                if size > capacity:
                    raise KernelError(
                        f"task {task.key!r} sent {getattr(payload, 'nbytes', len(body))} "
                        f"bytes for tag {tags[offset]!r} but declared {counts[offset][1]}: "
                        f"the record cannot fit the {capacity}-byte ring to node {dst}"
                    )
                delay = (self._chaos.on_message(task.key, tags[offset], self.node, dst)
                         if self._chaos is not None else None)
                messages, nbytes = map(sum, zip(*counts[offset:offset + len(run)]))
                record = ((task.key, run, dst), messages, nbytes, fields, body, size)
                if delay or not self._ship(start, *record):
                    self._outbox.append((start + (delay or 0.0), *record))
                else:
                    reached.add(dst)
        self._ring(reached)

    def _ship(self, start: float, label, messages: int, nbytes: int, fields, body, size):
        """Write one record into its ring (False: it does not fit now);
        its plan messages are tallied here, once, when they are really
        on their way.  The caller rings."""
        dst = label[2]
        if not self._outbound[dst].put(fields, body, size):
            return False
        end = time.perf_counter()
        tally = self.by_dst.setdefault(dst, [0, 0, 0])
        tally[0] += messages
        tally[1] += nbytes
        tally[2] += size
        self.send_busy += end - start
        if self.want_trace:
            self.sent.append((start, end, label))
        self._words[_MESSAGES] += messages
        return True

    def _ring(self, nodes) -> None:
        for dst in nodes:
            self._channels.doorbells[dst].release()

    def _flush(self) -> None:
        """Retry the outbox: whatever is due and now fits, goes."""
        now = time.perf_counter()
        waiting, reached = [], set()
        for item in self._outbox:
            if item[0] <= now and self._ship(now, *item[1:]):
                reached.add(item[1][2])
            else:
                waiting.append(item)
        self._outbox = waiting
        self._ring(reached)

    def flush_outbox(self) -> bool:
        """After the pool finished: block until the outbox is empty
        (False when the run was stopped first)."""
        while self._outbox:
            with self._lock:
                if self._cancelled or self._words[_ABORT]:
                    return False
                self._flush()
            if self._outbox:
                time.sleep(_RETRY)
        return True

    # -- receiving (under the executor lock) -------------------------------

    def _poll(self) -> None:
        """Before every pop: notice a peer's abort, retry the outbox,
        take arrived records out of the inbound rings and release
        their consumers into the node's ready queue."""
        if self._words[_ABORT] and not self._cancelled:
            self._cancelled = True
            self._work_ready.notify_all()
        if self._outbox:
            self._flush()
        for src, ring in self._inbound:
            while ring.pending():
                start = time.perf_counter()
                record = ring.take()
                if record is None:
                    break
                first, count, payload = record
                edge = bisect.bisect_right(self._firsts, first) - 1
                producer, tags = self._edges[edge]
                offset = first - self._firsts[edge]
                tags = tags[offset:offset + count]
                consumers = []
                for tag in tags:
                    consumers += self._remote_consumers.pop((producer, tag))
                    self._store.inject(producer, tag, payload)
                if self._wake(consumers):
                    self._work_ready.notify_all()
                end = time.perf_counter()
                self.recv_busy += end - start
                if self.want_trace:
                    self.received.append((start, end, (producer, tags, src)))

    def _idle_wait(self) -> None:
        """Nothing to run.  With remote inputs (or outbox records)
        outstanding, one worker sleeps on the doorbell with the
        executor lock released; everyone else on the condition."""
        if self._listening or not (self._remote_consumers or self._outbox):
            self._work_ready.wait()
            return
        self._listening = True
        self._lock.release()
        try:
            self._doorbell.acquire(timeout=_RETRY if self._outbox else _POLL)
        finally:
            self._lock.acquire()
            self._listening = False
            # Should this worker leave with a task, a sleeper on the
            # condition takes the doorbell over.
            self._work_ready.notify()

    def _wake(self, consumers) -> bool:
        woke = super()._wake(consumers)
        if woke and self._listening:
            self._doorbell.release()  # local work (or the end) for the listener
        return woke

    def _request_cancel(self) -> None:
        super()._request_cancel()
        self._doorbell.release()


class _Control:
    """A node's control thread: the one reader of its control pipe, for
    the node's whole life.  A run description (its memfd follows on the
    same socket) is queued for the main thread; a cancel stops the run
    in progress and every later one, and so does the end -- ``close``,
    or EOF: the parent died -- after which the queue yields None.  A
    node does not run headless."""

    def __init__(self, ctrl: Connection) -> None:
        self.ctrl = ctrl
        #: (knobs, memfd) per run the parent sent; None once it closed
        self.orders: queue.SimpleQueue = queue.SimpleQueue()
        self._lock = threading.Lock()
        self._executor: _NodeExecutor | None = None
        self._stopped = False

    def attach(self, executor: _NodeExecutor | None) -> None:
        """The run in progress (None between runs)."""
        with self._lock:
            self._executor = executor
            stopped = self._stopped
        if stopped and executor is not None:
            executor._request_cancel()

    def listen(self) -> None:
        while True:
            try:
                message = self.ctrl.recv()
                if message[0] == "run":
                    self.orders.put((message[1], recv_handle(self.ctrl)))
                    continue
            except (EOFError, OSError, RuntimeError):  # RuntimeError: no descriptor came
                message = ("close",)
            with self._lock:
                self._stopped = True
                executor = self._executor
            if executor is not None:
                executor._request_cancel()
            if message[0] == "close":
                self.orders.put(None)
                return


def _relative_spans(records, epoch):
    return [(r[0] - epoch, r[1] - epoch, r[2]) for r in records]


def _run_node(
    node: int,
    channels: _Channels,
    control: _Control,
    graph: TaskGraph,
    jobs: int,
    policy: str,
    want_trace: bool,
    epoch: float,
    chaos=None,
) -> tuple:
    """One run of ``node``'s tasks of ``graph``: the report it sends
    home, ``("done", stats)``, ``("cancelled", None)`` or ``("error",
    exc)``."""
    executor = _NodeExecutor(graph, node, channels, jobs=jobs,
                             policy=policy, trace=want_trace, chaos=chaos)
    control.attach(executor)
    try:
        executor.run()
        if not executor.flush_outbox():
            raise RunCancelled("stopped with records still in the outbox")
    except RunCancelled:
        return ("cancelled", None)
    except BaseException as exc:  # KernelError and anything unexpected
        if not isinstance(exc, KernelError):
            exc = KernelError(f"node {node} failed: {exc!r}")
        channels.abort(node)
        return ("error", exc)
    finally:
        control.attach(None)
    stats = {
        "completed": executor._recorder.completed(),
        "results": executor._store.results,
        "worker_busy": executor._recorder.busy_per_worker(),
        "by_dst": executor.by_dst,
        "send_busy": executor.send_busy,
        "recv_busy": executor.recv_busy,
    }
    if want_trace:
        stats["task_spans"] = [
            (wid, kind, start - epoch, end - epoch, label, task_id)
            for wid, lane in enumerate(executor._recorder._lanes)
            for kind, start, end, label, task_id in lane
        ]
        stats["send_spans"] = _relative_spans(executor.sent, epoch)
        stats["recv_spans"] = _relative_spans(executor.received, epoch)
    return ("done", stats)


def _run_described(node: int, channels: _Channels, control: _Control,
                   knobs: tuple, fd: int) -> tuple:
    """One run of a pool: rebuild the graph the description names over
    the mapping behind ``fd``, refuse it unless its plan digest is the
    parent's, run it, then let the build go and unmap the memfd."""
    from ..core.recipe import rebuild

    description, digest, jobs, policy, want_trace, epoch = knobs
    try:
        memory = mmap.mmap(fd, os.fstat(fd).st_size)
    finally:
        os.close(fd)
    built = None
    try:
        try:
            built = rebuild(description, memory)
        except Exception as exc:  # reported home: the parent closes the pool
            return ("error", KernelError(f"node {node} could not rebuild the run's "
                                         f"graph: {exc!r}"))
        if built.graph.plan_digest() != digest:
            return ("error", KernelError(
                f"node {node} refused the run: its rebuilt graph's plan digest "
                f"{built.graph.plan_digest()} is not the parent's {digest}"))
        return _run_node(node, channels, control, built.graph, jobs, policy,
                         want_trace, epoch)
    finally:
        built = None
        gc.collect()  # the run's executor and kernels, which view the mapping
        try:
            memory.close()
        except BufferError:  # pragma: no cover - a view outlived the run
            memory.madvise(mmap.MADV_DONTNEED)


def _node_main(
    node: int,
    channels: _Channels,
    ctrl: Connection,
    inherited: list[Connection],
    one_shot: tuple | None,
) -> None:
    """Entry point of one node process (runs under fork).  A one-shot
    node runs the graph it inherited once -- ``one_shot`` is that run:
    ``(graph, jobs, policy, want_trace, epoch, chaos)`` -- and returns;
    a pool's node (``one_shot`` None) runs each description the parent
    sends, until it closes the pool."""
    for conn in inherited:  # the parent's pipe ends: EOF must mean it died
        conn.close()
    try:
        control = _Control(ctrl)
        threading.Thread(target=control.listen, name="repro-procs-control",
                         daemon=True).start()
        if one_shot is not None:
            ctrl.send(_run_node(node, channels, control, *one_shot))
            return
        while (order := control.orders.get()) is not None:
            ctrl.send(_run_described(node, channels, control, *order))
    except BaseException as exc:  # pragma: no cover - defensive
        try:
            ctrl.send(("error", KernelError(f"node {node} crashed: {exc!r}")))
        except Exception:
            pass


def _node_process(node: int, channels: _Channels, ctrl: Connection,
                  inherited: list[Connection], one_shot: tuple | None) -> None:
    """A node process: :func:`_node_main`, then exit at once.  It must
    not run the interpreter shutdown it inherited with the fork: that
    joins the forking process's threads, and where the fork came from a
    ``ThreadPoolExecutor`` worker (a tuning candidate's timeout) the
    pool's exit hook joins the very thread that forked, raises, and the
    child unwinds into the parent's code instead of exiting.  The
    inherited objects are frozen first, so no collection here writes
    to (and copies) the parent's pages.  A pool's node then lets go of
    every build it inherited (:func:`~repro.core.recipe.release_builds`):
    it runs only what it is sent."""
    from ..core.recipe import release_builds

    gc.freeze()
    try:
        if one_shot is None:
            release_builds()
        _node_main(node, channels, ctrl, inherited, one_shot)
    finally:
        for stream in (sys.stdout, sys.stderr):
            try:
                stream.flush()
            except (AttributeError, OSError, ValueError):
                pass
        os._exit(0)


# ---------------------------------------------------------------------------
# parent side
# ---------------------------------------------------------------------------


class ProcessExecutor:
    """Execute a finalized multi-node task graph on real OS processes.

    Parameters
    ----------
    graph:
        Kernel-carrying task graph whose tasks are placed on nodes
        ``0..procs-1``.
    procs:
        Node processes; defaults to the number of nodes the graph uses.
    jobs:
        Worker *threads per process*; ``None`` means 1 (the cores go
        to ``procs``).
    policy:
        Each node's ready-queue policy (``"fifo"`` / ``"lifo"`` /
        ``"priority"``).
    trace:
        Capture a merged wall-clock :class:`Trace` across processes
        (compute lanes per worker, ``-1``/``-2`` comm lanes for
        send/recv).
    metrics:
        Optional :class:`~repro.obs.metrics.MetricRegistry`.  It never
        leaves the parent: a node ships its tallies home once, in its
        ``("done", stats)`` message, the parent builds the report from
        them and folds the report into the registry
        (:func:`~repro.obs.metrics.publish_run`).

    A run whose graph can be described is dispatched to the idle pool
    of its ``(procs, jobs)`` or to bare nodes forked for it; any other
    run forks one-shot nodes that inherit the graph (module docstring,
    *Pools*).
    """

    def __init__(
        self,
        graph: TaskGraph,
        procs: int | None = None,
        jobs: int | None = None,
        policy: str = DEFAULT_POLICY,
        trace: bool = False,
        metrics: MetricRegistry | None = None,
    ) -> None:
        if not fork_available():
            raise RuntimeError(
                "the processes backend requires the POSIX 'fork' start "
                "method, which this platform does not provide"
            )
        graph.finalize()
        self.graph = graph
        self.procs = procs if procs is not None else default_procs(graph)
        if self.procs < 1:
            raise ValueError(f"need at least one process, got {self.procs}")
        top = max(graph.nodes_used(), default=0)
        if top >= self.procs:
            raise ValueError(
                f"graph places tasks on node {top} but only {self.procs} "
                "processes were requested"
            )
        self.jobs = jobs if jobs is not None else 1
        if self.jobs < 1:
            raise ValueError(
                f"need at least one worker thread per process, got {self.jobs}")
        self.policy = policy.lower()
        self.want_trace = trace
        self.metrics = metrics
        ensure_executable(graph, backend="processes")

        #: optional fault-injection hook (repro.chaos), forked into the
        #: node executors; set by the runner before run().
        self.chaos = None
        #: optional :class:`repro.chaos.checkpoint.CheckpointStore`;
        #: when set, a lost node's :class:`NodeLostError` carries the
        #: latest complete checkpoint step for restart.
        self.checkpoint_store = None
        #: ``time.perf_counter()`` stamps of the run outside its tasks:
        #: ``start``, ``launched`` (one-shot nodes forked, or the
        #: description sent to a pool's), ``arrived`` (the last report readable),
        #: ``received`` (read), ``reaped`` and ``unmapped`` (a pool that
        #: ends with the run), ``reported`` (the report built)
        self.stamps: dict[str, float] = {}

        self._started = False
        self._finished = False
        self._pool: _Pool | None = None
        self._channels: _Channels | None = None  # while the run is live
        #: (tasks done, messages sent, elapsed): the last progress() sample
        self._tallies: tuple[int, int, float] = (0, 0, 0.0)
        self._epoch = 0.0
        self._cancel_at: float | None = None
        self._lock = threading.Lock()

    @property
    def processes(self) -> list[mp.Process]:
        """The node processes (for liveness checks in tests/tools)."""
        return list(self._pool.processes) if self._pool is not None else []

    def progress(self) -> dict:
        """Live view for :mod:`repro.obs.monitor`: every node bumps its
        ``tasks done`` / ``messages sent`` words in the shared header
        as it goes, so the parent reads task and message counts mid-run
        (a sample may be one task stale).  Frozen once the run ends."""
        with self._lock:
            if self._channels is not None:
                self._tallies = (*self._channels.tallies(),
                                 time.perf_counter() - self._epoch)
            done, messages, elapsed = self._tallies
        return {
            "done": done,
            "total": len(self.graph),
            "messages": messages,
            "elapsed_s": elapsed,
            "procs_alive": sum(1 for p in self.processes if p.is_alive()),
            "procs": self.procs,
        }

    # -- public API -----------------------------------------------------

    def run(self) -> ProcsReport:
        """Dispatch the run to a pool, or fork one-shot node processes,
        then watch the nodes on the calling thread: returns the report,
        or raises the first node's error / :class:`RunCancelled`."""
        with self._lock:
            if self._started:
                raise RuntimeError(
                    "a ProcessExecutor instance runs exactly once; build "
                    "another executor to run the graph again"
                )
            self._started = True
        try:
            self.stamps["start"] = time.perf_counter()
            recipe, description = self.graph.recipe, None
            if self.chaos is None and recipe is not None and recipe.describes(self.graph):
                description = recipe.description()
            pool = (self._fork(one_shot=True) if description is None
                    else self._dispatch(recipe, description))
            with self._lock:
                self._pool, self._channels = pool, pool.channels
            self.stamps["launched"] = time.perf_counter()
            self._send_cancel()  # one accepted while the nodes were launched
            return self._watch()
        except BaseException:
            with self._lock:
                self._finished = True
                live, self._channels = self._channels is not None, None
            if live:  # interrupted mid-watch: the pool goes with the run
                _POOLS.drop(pool)
                pool.close(force=True)
            raise

    def _dispatch(self, recipe, description: bytes) -> _Pool:
        """Send the run to the idle pool of its ``(procs, jobs)``, or to
        bare nodes forked for it, kept as that pool if it has none."""
        key = (self.procs, self.jobs)
        while True:
            pool = _POOLS.checkout(key)
            fresh = pool is None
            if fresh:
                pool = self._fork(one_shot=False)
                _POOLS.adopt(pool)
            self._epoch = time.perf_counter()
            try:
                pool.dispatch(recipe, description,
                              (self.jobs, self.policy, self.want_trace, self._epoch))
                return pool
            except OSError:  # a node died (while idle, or as it started)
                _POOLS.drop(pool)
                pool.close(force=True)
                if fresh:
                    raise

    def _fork(self, one_shot: bool) -> _Pool:
        """Fork node processes: one-shot nodes that run the graph they
        inherit, or bare nodes for a pool, which let go of every build
        they inherit (:func:`_node_process`)."""
        ctx = mp.get_context("fork")
        pool = _Pool((self.procs, self.jobs))
        try:
            # Laid out before the fork: the children inherit the channels.
            pool.channels = _Channels(self.procs, ctx, _ring_bytes(self.graph) if one_shot
                                      else RING_BYTES)
            trim_heap()
            self._epoch = time.perf_counter()
            run = ((self.graph, self.jobs, self.policy, self.want_trace, self._epoch,
                    self.chaos) if one_shot else None)
            for node in range(self.procs):
                parent_end, child_end = ctx.Pipe(duplex=True)
                proc = ctx.Process(
                    target=_node_process,
                    args=(node, pool.channels, child_end,
                          [*pool.ctrl.values(), parent_end], run),
                    name=f"repro-procs-{node}",
                    daemon=True,
                )
                proc.start()
                child_end.close()  # the child owns it now
                pool.ctrl[node] = parent_end
                pool.processes.append(proc)
        except BaseException:
            pool.close(force=True)
            raise
        return pool

    def cancel(self) -> bool:
        """Stop the run from another thread: every node is told to
        unwind (stragglers are terminated after ``JOIN_GRACE``) and
        :meth:`run` raises :class:`RunCancelled`.  ``False`` before
        :meth:`run` starts and once it has returned."""
        with self._lock:
            if not self._started or self._finished:
                return False
            if self._cancel_at is None:
                self._cancel_at = time.monotonic()
        self._send_cancel()
        return True

    # -- lifecycle -------------------------------------------------------

    def _send_cancel(self) -> None:
        """Tell the run's nodes to stop, once a cancel was accepted."""
        with self._lock:
            # Only while the run is live: then the pool is its own.
            conns = (list(self._pool.ctrl.values())
                     if self._cancel_at is not None and self._channels is not None
                     else [])
        for conn in conns:
            try:
                conn.send(("cancel",))
            except (BrokenPipeError, OSError):
                pass

    def _watch(self) -> ProcsReport:
        """Collect every child's outcome, then hand the pool back idle or
        close it, and return the report or raise.  A kept pool's idle
        wait gets a thread of its own, which holds the pool and not this
        executor (its graph, kernels and grid mapping are the caller's
        to drop)."""
        pool = self._pool
        waiting = dict(pool.ctrl)  # node -> conn, removed once reported
        outcomes: dict[int, tuple] = {}
        first_error: BaseException | None = None
        forced = False

        def fail(exc: BaseException) -> None:
            nonlocal first_error
            if first_error is None:
                first_error = exc
                # Peers may now be waiting on inputs that will never
                # come; tell everyone to stop.
                self.cancel()

        def lost(node: int, why: str) -> NodeLostError:
            """The typed loss report: which node, and the last complete
            checkpoint a recovery layer may restart from."""
            store = self.checkpoint_store
            step = store.latest_complete() if store is not None else None
            return NodeLostError(why, node=node, checkpoint_step=step)

        while waiting:
            with self._lock:
                cancel_at = self._cancel_at
            if cancel_at is not None and time.monotonic() - cancel_at > JOIN_GRACE:
                # A pool ignored cancellation (e.g. a kernel stuck in C
                # code): forcibly terminate whoever has not reported.
                for node in list(waiting):
                    del waiting[node]
                    outcomes.setdefault(node, ("cancelled", None))
                forced = True
                break
            sentinels = {n: pool.processes[n].sentinel for n in waiting}
            ready = conn_wait([*waiting.values(), *sentinels.values()],
                              timeout=_POLL)
            if ready:
                self.stamps["arrived"] = time.perf_counter()
            for node in [n for n, conn in waiting.items()
                         if conn in ready or sentinels[n] in ready]:
                # A one-shot child exits right after reporting, so its
                # death and its report can show up together: read the
                # pipe first.
                conn = waiting.pop(node)
                try:
                    outcome = conn.recv() if conn.poll() else None
                except (EOFError, OSError):
                    outcome = None
                if outcome is None:  # exited (or closed its pipe) unreported
                    pool.processes[node].join(timeout=_POLL)
                    outcome = ("error", lost(node, (
                        f"node {node} process died without reporting (exit "
                        f"code {pool.processes[node].exitcode})")))
                outcomes[node] = outcome
                if outcome[0] == "error":
                    fail(outcome[1])
        t_end = self.stamps["received"] = time.perf_counter()

        cancelled = [n for n, o in outcomes.items() if o[0] == "cancelled"]
        with self._lock:  # freeze progress(); cancel() answers False from here
            self._tallies = (*pool.channels.tallies(), t_end - self._epoch)
            self._channels = None
            self._finished = True
            # A cancel accepted after the last node reported still
            # cancels the run, and a cancel sent to nodes that had
            # already reported stops them for good: any pool that was
            # sent one closes.
            cancelled_at = self._cancel_at
            keep = (pool.kept and first_error is None and not cancelled
                    and cancelled_at is None)
        if not keep:
            _POOLS.drop(pool)
            pool.reap(force=forced)
            self.stamps["reaped"] = time.perf_counter()
            pool.unmap()
            self.stamps["unmapped"] = time.perf_counter()

        if first_error is not None:
            raise first_error
        if cancelled or cancelled_at is not None:
            raise RunCancelled(
                f"run cancelled with {len(cancelled)} of {self.procs} "
                "node processes unfinished"
            )
        report = self._build_report(outcomes, t_end)
        self.stamps["reported"] = time.perf_counter()
        if keep:
            threading.Thread(target=_POOLS.linger, args=(pool, _POOLS.release(pool)),
                             name="repro-procs-linger", daemon=True).start()
        return report

    # -- report ----------------------------------------------------------

    def _build_report(self, outcomes: dict[int, tuple], t_end: float) -> ProcsReport:
        elapsed = t_end - self._epoch
        useful, redundant = self.graph.total_flops()
        census = self.graph.census()
        results: dict = {}
        completed: set = set()
        worker_busy: dict[int, float] = {}
        node_busy: dict[int, float] = {}
        comm_busy: dict[int, float] = {}
        comm_lanes: dict[tuple[int, str], float] = {}
        by_pair: dict[tuple[int, int], tuple[int, int]] = {}
        wire_by_pair: dict[tuple[int, int], int] = {}
        trace: Trace | None = None
        spans: list[tuple] = []
        for node, outcome in sorted(outcomes.items()):
            stats = outcome[1]
            results.update(stats["results"])
            completed.update(stats["completed"])
            for wid, busy in stats["worker_busy"].items():
                worker_busy[node * self.jobs + wid] = busy
            node_busy[node] = sum(stats["worker_busy"].values())
            comm_lanes[node, "send"] = stats["send_busy"]
            comm_lanes[node, "recv"] = stats["recv_busy"]
            comm_busy[node] = stats["send_busy"] + stats["recv_busy"]
            for dst, (msgs, nbytes, wire) in stats["by_dst"].items():
                by_pair[node, dst] = (msgs, nbytes)
                wire_by_pair[node, dst] = wire
            if self.want_trace:
                for wid, kind, start, end, label, task_id in stats["task_spans"]:
                    spans.append((node, wid, kind, start, end, label, task_id))
                # Comm labels are (producer, tag, peer) tuples; the
                # producer key is the span's task identity.
                for start, end, label in stats["send_spans"]:
                    spans.append((node, SEND_LANE, "send", start, end, label, label[0]))
                for start, end, label in stats["recv_spans"]:
                    spans.append((node, RECV_LANE, "recv", start, end, label, label[0]))
        if self.want_trace:
            trace = build_trace(spans)
            if trace_validation_enabled():
                trace.validate()
        report = ProcsReport(
            elapsed=elapsed,
            tasks_run=len(completed),
            messages=sum(msgs for msgs, _ in by_pair.values()),
            message_bytes=sum(nbytes for _, nbytes in by_pair.values()),
            local_edges=census.local_edges,
            local_bytes=census.local_bytes,
            useful_flops=useful,
            redundant_flops=redundant,
            node_busy=node_busy,
            comm_busy=comm_busy,
            max_comm_backlog=0,
            trace=trace,
            results=results,
            jobs=self.jobs,
            policy=self.policy,
            worker_busy=worker_busy,
            by_pair=by_pair,
            completed=frozenset(completed),
            procs=self.procs,
            wire_by_pair=wire_by_pair,
            comm_lanes=comm_lanes,
        )
        if self.metrics is not None:
            report.metrics = publish_run(self.metrics, report, self.graph)
        return report


def execute_procs(
    graph: TaskGraph,
    procs: int | None = None,
    jobs: int | None = None,
    policy: str = DEFAULT_POLICY,
    trace: bool = False,
    metrics: MetricRegistry | None = None,
) -> ProcsReport:
    """One-shot convenience: run ``graph`` on node processes (a pool's,
    where it can be described)."""
    return ProcessExecutor(
        graph, procs=procs, jobs=jobs, policy=policy, trace=trace,
        metrics=metrics,
    ).run()


__all__ = [
    "IDLE_CLOSE",
    "JOIN_GRACE",
    "ProcessExecutor",
    "ProcsReport",
    "RECV_LANE",
    "SEND_LANE",
    "close_pools",
    "default_procs",
    "execute_procs",
    "fork_available",
]
