"""PayloadStore: the mailbox contract the three backends share."""

import numpy as np
import pytest

from repro.runtime.graph import TaskGraph
from repro.runtime.store import PayloadStore
from repro.runtime.task import Flow


def two_node_graph() -> TaskGraph:
    g = TaskGraph()
    g.add_task("p", node=0, out_nbytes={"x": 8})
    g.add_task("local", node=0, inputs=(Flow("p", "x", 8), Flow("p", "ctl")))
    g.add_task("remote", node=1, inputs=(Flow("p", "y", 8), Flow("local", "z", 8)))
    return g.finalize()


def test_publish_gather_release_over_the_whole_graph():
    g = two_node_graph()
    store = PayloadStore(g, g)
    x = np.ones(1)
    out = store.publish(g["p"], {"x": x, "y": 2.0, "extra": 3.0})
    assert out["ctl"] is None  # the unsized control edge was filled in
    assert not x.flags.writeable
    assert store.results == {("p", "extra"): 3.0}  # nobody consumes it
    assert len(store) == 3
    assert store.gather(g["local"]) == {("p", "x"): x, ("p", "ctl"): None}
    store.publish(g["local"], {"z": 4.0})
    store.release(g["local"])
    assert len(store) == 2  # x and ctl freed, y and z still awaited
    store.release(g["remote"])
    assert len(store) == 0


def test_missing_payload_output_is_an_error():
    g = two_node_graph()
    store = PayloadStore(g, g)
    with pytest.raises(RuntimeError, match=r"produced tags \['x'\] but consumers expect"):
        store.publish(g["p"], {"x": 1.0})
    with pytest.raises(RuntimeError, match="missing when task 'remote' started"):
        store.gather(g["remote"])


def test_one_nodes_store_ships_and_receives():
    g = two_node_graph()
    node0 = PayloadStore(g, [g["p"], g["local"]])
    node0.publish(g["p"], {"x": 1.0, "y": 2.0})
    # y is consumed only on node 1: neither held here nor a result
    assert len(node0) == 2 and node0.results == {}
    node1 = PayloadStore(g, [g["remote"]])
    node1.inject("p", "y", 2.0)
    node1.inject("local", "z", 4.0)
    assert node1.gather(g["remote"]) == {("p", "y"): 2.0, ("local", "z"): 4.0}
    node1.inject("p", "x", 1.0)  # not awaited on this node: dropped
    assert len(node1) == 2
