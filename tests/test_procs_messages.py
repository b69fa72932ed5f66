"""Message accounting of the processes backend.

The backend's whole reason to exist is that the base-vs-CA message
gap becomes *measured*: every inter-process pipe message is counted
with its census-declared payload size.  These tests pin the contract:

* the measured message count/bytes equal the static graph census and
  the simulator's runtime tally exactly (same unit: one message per
  (producer, tag, destination node));
* base-parsec sends ~s x the messages of ca-parsec(s), the paper's
  communication-avoiding claim;
* what crosses a ring is one 16-byte ready record per *edge* -- the
  messages one producer task sends one node -- so the record count is
  the plan's (producer, destination) pairs, and a traced record is one
  send and one recv span that the critical path links to every
  consumer it released;
* send/recv spans land on the standard comm lanes of the Trace schema,
  so occupancy analysis and the Chrome-trace exporter work unchanged.
"""

from __future__ import annotations

import json
import multiprocessing
import threading

import pytest

from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.runner import run
from repro.distgrid.partition import ProcessGrid
from repro.exec import fork_available, procs
from repro.machine.machine import nacl
from repro.obs import export
from repro.obs.critpath import _CausalDag
from repro.stencil.problem import JacobiProblem

pytestmark = [
    pytest.mark.skipif(not fork_available(), reason="needs POSIX fork"),
    pytest.mark.timeout(600),
]

# Full-width tiles on a 1D process grid: one producer tile per node
# boundary and no diagonal neighbours, so the base/CA message ratio is
# *exactly* s (the paper's regime: tiles of 288/864 are node-sized).
N = 48
TILE = 48
ITERATIONS = 12
STEPS = 4
PGRID = ProcessGrid(4, 1)
MACHINE = nacl(4)
PROBLEM = JacobiProblem(n=N, iterations=ITERATIONS)


def _real(impl: str, trace: bool = False, **kwargs):
    return run(PROBLEM, impl=impl, machine=MACHINE, backend="processes",
               procs=4, jobs=1, trace=trace, pgrid=PGRID, **kwargs)


def _census(impl: str, **kwargs):
    builder = build_base_graph if impl == "base-parsec" else build_ca_graph
    built = builder(PROBLEM, MACHINE, with_kernels=False, pgrid=PGRID, **kwargs)
    built.graph.finalize()
    return built.graph.census()


@pytest.fixture(scope="module")
def base_run():
    return _real("base-parsec", tile=TILE)


@pytest.fixture(scope="module")
def ca_run():
    return _real("ca-parsec", tile=TILE, steps=STEPS)


def test_measured_messages_equal_graph_census(base_run, ca_run):
    for result, census in (
        (base_run, _census("base-parsec", tile=TILE)),
        (ca_run, _census("ca-parsec", tile=TILE, steps=STEPS)),
    ):
        assert result.messages == census.remote_messages, result.impl
        assert result.message_bytes == census.remote_bytes, result.impl
        assert result.engine.by_pair == census.by_pair, result.impl


def test_measured_messages_equal_simulator_tally(base_run, ca_run):
    for result, kwargs in (
        (base_run, {"tile": TILE}),
        (ca_run, {"tile": TILE, "steps": STEPS}),
    ):
        sim = run(PROBLEM, impl=result.impl, machine=MACHINE, pgrid=PGRID,
                  **kwargs)
        assert result.messages == sim.messages, result.impl
        assert result.message_bytes == sim.message_bytes, result.impl


def test_ca_sends_s_times_fewer_messages(base_run, ca_run):
    assert ca_run.messages > 0
    # s divides the iteration count and every node boundary is one
    # tile, so PA1's coalescing is exact: base exchanges every
    # iteration what CA exchanges once per s-step epoch.
    assert base_run.messages == STEPS * ca_run.messages, (
        f"base sent {base_run.messages} real messages, CA "
        f"{ca_run.messages}; expected exactly {STEPS}x"
    )
    # The avoided messages were not free: CA's messages are fatter
    # (s-deep ghost strips instead of single rows).
    assert ca_run.message_bytes / ca_run.messages > (
        base_run.message_bytes / base_run.messages
    )


def edges(graph) -> int:
    """The (producer, destination node) pairs of ``graph``'s message plan."""
    return sum(len({dst for _tag, dst, _nbytes in messages})
               for messages in graph.message_plan().values())


def test_wire_bytes_are_one_ready_record_per_message(base_run, ca_run):
    """A strip lands in its consumer's slot; what crosses a ring is a
    16-byte header per record, whatever the strips' declared bytes (on
    this 1-D grid of full-width tiles a record carries one strip)."""
    for result in (base_run, ca_run):
        assert result.engine.wire_bytes == 16 * edges(result.graph), result.impl
        total_pair_msgs = sum(m for m, _ in result.engine.by_pair.values())
        total_pair_bytes = sum(b for _, b in result.engine.by_pair.values())
        assert total_pair_msgs == result.messages, result.impl
        assert total_pair_bytes == result.message_bytes, result.impl


def test_occupancy_and_summary(base_run, ca_run):
    for result in (base_run, ca_run):
        assert 0 < result.occupancy() <= 1, result.impl
        text = result.summary()
        assert "processes" in text and "real msgs" in text


def test_trace_has_comm_lanes_and_exports(tmp_path):
    result = _real("ca-parsec", trace=True, tile=TILE, steps=STEPS)
    trace = result.trace
    assert trace is not None
    kinds = {span.kind for span in trace.spans if span.worker < 0}
    assert kinds == {"send", "recv"}
    sends = [s for s in trace.spans if s.kind == "send"]
    assert len(sends) == result.messages
    nodes = {span.node for span in trace.spans}
    assert nodes == {0, 1, 2, 3}  # every process contributed spans
    out = tmp_path / "procs_trace.json"
    export.write(trace, str(out))
    events = json.loads(out.read_text())["traceEvents"]
    assert any(e.get("cat") == "comm" for e in events)


def _traced(impl: str, pgrid: ProcessGrid):
    problem = JacobiProblem(n=32, iterations=8)
    knobs = {"steps": 2} if impl == "ca-parsec" else {}
    return run(problem, impl=impl, machine=nacl(pgrid.size), backend="processes",
               procs=pgrid.size, jobs=1, trace=True, pgrid=pgrid, tile=8, **knobs)


@pytest.mark.parametrize("impl", ["base-parsec", "ca-parsec"])
@pytest.mark.parametrize("shape", [(1, 2), (2, 2)])
def test_one_ready_record_per_producer_and_destination(impl, shape):
    """A node-block task sends every node it reaches one ready record
    for all the strips and corners it wrote into that node's slots:
    records (send spans, recv spans, 16-byte headers) are the plan's
    (producer, destination) pairs, while messages still equal the
    census entry for entry."""
    result = _traced(impl, ProcessGrid(*shape))
    graph, census = result.graph, result.graph.census()
    assert result.messages == census.remote_messages > edges(graph)
    assert result.message_bytes == census.remote_bytes
    assert result.engine.by_pair == census.by_pair
    spans = result.trace.spans
    sends = [s for s in spans if s.kind == "send"]
    assert len(sends) == sum(s.kind == "recv" for s in spans) == edges(graph)
    assert result.engine.wire_bytes == 16 * edges(graph)
    # a record names its one flow, which stands for every message it carries
    flows = {(flow.producer, flow.tag): flow for task in graph for flow in task.inputs}
    assert all(len(s.label[1]) == 1 for s in sends)
    assert sum(len(flows[s.label[0], s.label[1][0]].messages) for s in sends) == result.messages
    if impl == "ca-parsec" and shape == (2, 2):  # corners: one producer reaches three nodes
        assert max(len({dst for _t, dst, _b in messages})
                   for messages in graph.message_plan().values()) == 3


def test_the_critical_path_links_each_record_to_every_consumer_it_released():
    result = _traced("ca-parsec", ProcessGrid(2, 2))
    dag = _CausalDag(result.trace, result.graph)
    spans, graph = dag.spans, result.graph
    recvs = [i for i, span in enumerate(spans) if span.kind == "recv"]
    assert recvs
    for i in recvs:
        producer, tags, _src = spans[i].label
        released = {task.key for task in graph if task.node == spans[i].node
                    and any((flow.producer, flow.tag) == (producer, tag)
                            for flow in task.inputs for tag in tags)}
        linked = {spans[v].task_id for v, etype in dag.succs[i] if etype == "dep"}
        assert linked == released, spans[i].label


@pytest.mark.parametrize("trace", [False, True])
def test_an_untraced_node_keeps_tallies_not_a_tuple_per_message(trace):
    """The four nodes of the base run, in this process, one thread
    each: what they tally per destination is the census, and only a
    traced node keeps anything per record -- one send and one recv
    span, no entry per message."""
    graph = build_base_graph(PROBLEM, MACHINE, pgrid=PGRID, tile=TILE).graph
    graph.finalize()
    channels = procs._Channels(4, multiprocessing.get_context("fork"), procs.RING_BYTES)
    nodes = [procs._NodeExecutor(graph, node, channels, jobs=1, policy="fifo", trace=trace)
             for node in range(4)]
    threads = [threading.Thread(target=node.run, daemon=True) for node in nodes]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
        assert not thread.is_alive()
    assert {(node.node, dst): (messages, nbytes) for node in nodes
            for dst, (messages, nbytes, _wire) in node.by_dst.items()} == graph.census().by_pair
    records = edges(graph) if trace else 0
    assert sum(len(node.sent) for node in nodes) == records
    assert sum(len(node.received) for node in nodes) == records
