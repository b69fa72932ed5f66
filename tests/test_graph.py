"""TaskGraph: construction, validation, static analysis."""

import pytest

from repro.runtime.graph import GraphError, TaskGraph
from repro.runtime.task import Flow


def chain(n: int, node_of=lambda i: 0, nbytes: int = 8) -> TaskGraph:
    g = TaskGraph()
    for i in range(n):
        inputs = (Flow(i - 1, "out", nbytes),) if i > 0 else ()
        g.add_task(i, node=node_of(i), inputs=inputs, cost=1.0, out_nbytes={"out": nbytes})
    return g


def test_duplicate_keys_rejected():
    g = TaskGraph()
    g.add_task("a", node=0)
    with pytest.raises(GraphError):
        g.add_task("a", node=0)


def test_missing_producer_rejected():
    g = TaskGraph()
    g.add_task("a", node=0, inputs=(Flow("ghost", "out"),))
    with pytest.raises(GraphError, match="missing"):
        g.finalize()


def test_cycle_detected():
    g = TaskGraph()
    g.add_task("a", node=0, inputs=(Flow("b", "out"),), out_nbytes={"out": 8})
    g.add_task("b", node=0, inputs=(Flow("a", "out"),), out_nbytes={"out": 8})
    with pytest.raises(GraphError, match="cycle"):
        g.finalize()


def test_cycle_check_skippable():
    g = TaskGraph()
    g.add_task("a", node=0, inputs=(Flow("b", "out"),), out_nbytes={"out": 8})
    g.add_task("b", node=0, inputs=(Flow("a", "out"),), out_nbytes={"out": 8})
    g.finalize(validate=False)  # caller vouches for acyclicity
    assert g.finalized


def test_finalize_idempotent_and_freezes():
    g = chain(3)
    g.finalize()
    g.finalize()
    with pytest.raises(GraphError):
        g.add_task("late", node=0)


def test_consumers_and_out_tags():
    g = chain(3).finalize()
    assert g.consumers[(0, "out")] == [1]
    assert g.consumers[(1, "out")] == [2]
    assert "out" in g.out_tags[2]  # declared even with no consumer


def test_census_local_vs_remote():
    g = chain(4, node_of=lambda i: i % 2, nbytes=100).finalize()
    census = g.census()
    # Every edge crosses nodes (0-1-0-1).
    assert census.remote_messages == 3
    assert census.remote_bytes == 300
    assert census.local_edges == 0


def test_census_message_coalescing():
    """Two same-node consumers of one (producer, tag) share a message."""
    g = TaskGraph()
    g.add_task("p", node=0, out_nbytes={"out": 64})
    g.add_task("c1", node=1, inputs=(Flow("p", "out", 64),))
    g.add_task("c2", node=1, inputs=(Flow("p", "out", 64),))
    g.add_task("c3", node=2, inputs=(Flow("p", "out", 64),))
    census = g.finalize().census()
    assert census.remote_messages == 2  # node 1 once, node 2 once
    assert census.remote_bytes == 128


def test_census_requires_finalize():
    with pytest.raises(GraphError):
        chain(2).census()
    with pytest.raises(GraphError):
        chain(2).message_plan()


def plan_graph() -> TaskGraph:
    """One producer on node 0 feeding nodes 0, 1 and 2 through three
    tags, with every sizing case of the message rule."""
    g = TaskGraph()
    g.add_task("p", node=0, out_nbytes={"big": 100, "small": 8})
    # node 2 is reached first in graph order, and by "small" before "big"
    g.add_task("c2", node=2, inputs=(Flow("p", "small", 40), Flow("p", "big", 10)))
    # two node-1 consumers share one "big" message, sized by the larger
    # flow; "ctl" is a zero-byte control edge that still crosses nodes
    g.add_task("c1a", node=1, inputs=(Flow("p", "big", 120), Flow("p", "ctl")))
    g.add_task("c1b", node=1, inputs=(Flow("p", "big", 300),))
    # same-node consumers never appear in the plan
    g.add_task("c0", node=0, inputs=(Flow("p", "big", 999), Flow("p", "ctl")))
    # a second remote producer, so by_pair has more than one source
    g.add_task("q", node=1, inputs=(Flow("c1a", "out", 16),), out_nbytes={"r": 24})
    g.add_task("c3", node=0, inputs=(Flow("q", "r"),))
    return g.finalize()


def test_message_plan_contract():
    plan = plan_graph().message_plan()
    assert set(plan) == {"p", "q"}  # c1a -> q stays on node 1
    # one entry per (tag, destination); size = max(declared, every
    # consuming flow on that node); order = first consuming flow
    assert plan["p"] == [
        ("small", 2, 40),   # flow (40) beats declared (8)
        ("big", 2, 100),    # declared (100) beats flow (10)
        ("big", 1, 300),    # c1a and c1b coalesce, the larger flow wins
        ("ctl", 1, 0),      # zero-byte control edge still a message
    ]
    assert plan["q"] == [("r", 0, 24)]  # unsized flow takes the declared size


def test_message_plan_cached_and_census_is_its_fold():
    g = plan_graph()
    plan = g.message_plan()
    assert g.message_plan() is plan
    census = g.census()
    assert g.census() is census
    entries = [(g[key].node, dst, nbytes)
               for key, messages in plan.items() for _tag, dst, nbytes in messages]
    assert census.remote_messages == len(entries) == 5
    assert census.remote_bytes == sum(n for _s, _d, n in entries) == 464
    by_pair: dict = {}
    for src, dst, nbytes in entries:
        msgs, total = by_pair.get((src, dst), (0, 0))
        by_pair[(src, dst)] = (msgs + 1, total + nbytes)
    assert census.by_pair == by_pair == {
        (0, 2): (2, 140), (0, 1): (2, 300), (1, 0): (1, 24),
    }
    # the same-node flows the plan skipped: p->c0 twice, c1a->q
    assert (census.local_edges, census.local_bytes) == (3, 999 + 16)


def test_flow_bytes_is_the_largest_declaration():
    g = plan_graph()
    assert g.flow_bytes("p", "big") == 999     # a same-node flow counts
    assert g.flow_bytes("p", "small") == 40
    assert g.flow_bytes("q", "r") == 24        # declared only
    assert g.flow_bytes("p", "ctl") == 0       # control edge


def test_total_flops():
    g = TaskGraph()
    g.add_task("a", node=0, flops=100, redundant_flops=10)
    g.add_task("b", node=0, flops=50)
    assert g.finalize().total_flops() == (150, 10)


def test_critical_path_chain():
    g = chain(5).finalize()
    assert g.critical_path() == pytest.approx(5.0)


def test_topological_order():
    g = chain(5).finalize()
    order = g.topological_order()
    assert order == [0, 1, 2, 3, 4]
    g2 = chain(3)
    with pytest.raises(GraphError, match="finalize"):
        g2.topological_order()


def test_topological_order_detects_cycles():
    g = TaskGraph()
    g.add_task("a", node=0, inputs=(Flow("b", "o", 8),), out_nbytes={"o": 8})
    g.add_task("b", node=0, inputs=(Flow("a", "o", 8),), out_nbytes={"o": 8})
    g.finalize(validate=False)  # validation would already refuse this
    with pytest.raises(GraphError, match="cycle"):
        g.topological_order()


def test_critical_path_diamond():
    g = TaskGraph()
    g.add_task("s", node=0, cost=1.0, out_nbytes={"o": 8})
    g.add_task("a", node=0, cost=10.0, inputs=(Flow("s", "o", 8),), out_nbytes={"o": 8})
    g.add_task("b", node=0, cost=1.0, inputs=(Flow("s", "o", 8),), out_nbytes={"o": 8})
    g.add_task("t", node=0, cost=1.0, inputs=(Flow("a", "o", 8), Flow("b", "o", 8)))
    assert g.finalize().critical_path() == pytest.approx(12.0)


def test_nodes_used():
    g = chain(4, node_of=lambda i: i % 3).finalize()
    assert g.nodes_used() == {0, 1, 2}


def test_container_protocol():
    g = chain(3)
    assert len(g) == 3 and 1 in g and g[1].key == 1
    assert sorted(t.key for t in g) == [0, 1, 2]
