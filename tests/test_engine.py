"""Engine core semantics: scheduling, timing, kernel execution."""

import numpy as np
import pytest

from repro.machine import units
from repro.machine.machine import MachineSpec
from repro.machine.network import NetworkSpec
from repro.machine.node import NodeSpec
from repro.runtime.engine import Engine
from repro.runtime.graph import GraphError, TaskGraph
from repro.runtime.task import Flow


def simple_machine(nodes=2, cores=3, task_overhead=0.0, so=10e-6, latency=1e-6):
    node = NodeSpec(
        name="t", cores=cores, core_stream_bw=10e9, node_stream_bw=10e9 * cores,
        core_peak_flops=1e9, task_overhead=task_overhead,
    )
    net = NetworkSpec(
        name="t", peak_bw=units.gbit_s(10), effective_bw=units.gbit_s(8),
        latency=latency, software_overhead=so,
    )
    return MachineSpec(name="test", nodes=nodes, node=node, network=net)


def test_single_task():
    g = TaskGraph()
    g.add_task("a", node=0, cost=2.0)
    rep = Engine(g, simple_machine(), charge_task_overhead=False).run()
    assert rep.elapsed == pytest.approx(2.0)
    assert rep.tasks_run == 1 and rep.messages == 0


def test_independent_tasks_fill_workers():
    """4 independent unit tasks on 2 compute workers -> 2 waves."""
    g = TaskGraph()
    for i in range(4):
        g.add_task(i, node=0, cost=1.0)
    rep = Engine(g, simple_machine(cores=3), charge_task_overhead=False).run()
    assert rep.elapsed == pytest.approx(2.0)


def test_chain_serializes():
    g = TaskGraph()
    for i in range(5):
        inputs = (Flow(i - 1, "o", 8),) if i > 0 else ()
        g.add_task(i, node=0, cost=1.0, inputs=inputs, out_nbytes={"o": 8})
    rep = Engine(g, simple_machine(), charge_task_overhead=False).run()
    assert rep.elapsed == pytest.approx(5.0)


def test_task_overhead_charged():
    g = TaskGraph()
    g.add_task("a", node=0, cost=1.0)
    m = simple_machine(task_overhead=0.5)
    rep = Engine(g, m).run()
    assert rep.elapsed == pytest.approx(1.5)


def test_remote_edge_costs_message_time():
    g = TaskGraph()
    g.add_task("p", node=0, cost=1.0, out_nbytes={"o": 8000})
    g.add_task("c", node=1, cost=1.0, inputs=(Flow("p", "o", 8000),))
    m = simple_machine(so=10e-6, latency=1e-6)
    rep = Engine(g, m, charge_task_overhead=False).run()
    wire = 8000 / m.network.effective_bw
    # send overhead + NIC serialization + latency + recv overhead.
    expected = 1.0 + 10e-6 + wire + 1e-6 + 10e-6 + 1.0
    assert rep.elapsed == pytest.approx(expected)
    assert rep.messages == 1 and rep.message_bytes == 8000


def test_local_edge_costs_nothing():
    g = TaskGraph()
    g.add_task("p", node=0, cost=1.0, out_nbytes={"o": 8000})
    g.add_task("c", node=0, cost=1.0, inputs=(Flow("p", "o", 8000),))
    rep = Engine(g, simple_machine(), charge_task_overhead=False).run()
    assert rep.elapsed == pytest.approx(2.0)
    assert rep.messages == 0
    assert rep.local_edges == 1 and rep.local_bytes == 8000


def test_message_coalescing_one_send_for_two_consumers():
    g = TaskGraph()
    g.add_task("p", node=0, cost=0.0, out_nbytes={"o": 100})
    g.add_task("c1", node=1, cost=0.0, inputs=(Flow("p", "o", 100),))
    g.add_task("c2", node=1, cost=0.0, inputs=(Flow("p", "o", 100),))
    rep = Engine(g, simple_machine(), charge_task_overhead=False).run()
    assert rep.messages == 1


def test_comm_thread_serializes_sends():
    """Two messages from one node: the comm thread handles them one
    after the other."""
    so = 100e-6
    g = TaskGraph()
    g.add_task("p1", node=0, cost=0.0, out_nbytes={"o": 8})
    g.add_task("p2", node=0, cost=0.0, out_nbytes={"o": 8})
    g.add_task("c1", node=1, cost=0.0, inputs=(Flow("p1", "o", 8),))
    g.add_task("c2", node=1, cost=0.0, inputs=(Flow("p2", "o", 8),))
    m = simple_machine(so=so, latency=0.0)
    rep = Engine(g, m, charge_task_overhead=False).run()
    wire = 8 / m.network.effective_bw
    # Sender thread serializes the two sends; the receiver thread
    # pipelines behind them: send1 [0,so], send2 [so,2so], recv1
    # [so+wire, 2so+wire], recv2 [2so+wire, 3so+wire].
    assert rep.elapsed == pytest.approx(3 * so + wire, rel=1e-3)


def test_engine_rejects_undersized_machine():
    g = TaskGraph()
    g.add_task("a", node=5, cost=1.0)
    with pytest.raises(GraphError):
        Engine(g, simple_machine(nodes=2))


def test_deterministic_elapsed():
    rng_graph = TaskGraph()
    for i in range(50):
        inputs = (Flow(i - 10, "o", 64),) if i >= 10 else ()
        rng_graph.add_task(i, node=i % 2, cost=0.001 * (i % 7 + 1),
                           inputs=inputs, out_nbytes={"o": 64})
    m = simple_machine()
    e1 = Engine(rng_graph, m).run().elapsed
    # Rebuild an identical graph (Engine mutates bookkeeping only).
    g2 = TaskGraph()
    for i in range(50):
        inputs = (Flow(i - 10, "o", 64),) if i >= 10 else ()
        g2.add_task(i, node=i % 2, cost=0.001 * (i % 7 + 1),
                    inputs=inputs, out_nbytes={"o": 64})
    e2 = Engine(g2, m).run().elapsed
    assert e1 == e2


def test_execute_routes_payloads():
    g = TaskGraph()
    g.add_task("p", node=0, kernel=lambda ins, t: {"o": np.arange(4.0)},
               out_nbytes={"o": 32})
    g.add_task(
        "c", node=1, inputs=(Flow("p", "o", 32),),
        kernel=lambda ins, t: {"r": float(ins[("p", "o")].sum())},
        out_nbytes={"r": 8},
    )
    rep = Engine(g, simple_machine(), execute=True).run()
    assert rep.results[("c", "r")] == 6.0


def test_execute_payloads_read_only():
    """Producer arrays are frozen; consumer mutation raises."""
    def bad_consumer(ins, t):
        arr = ins[("p", "o")]
        arr[0] = 99.0  # must fail
        return {}

    g = TaskGraph()
    g.add_task("p", node=0, kernel=lambda ins, t: {"o": np.zeros(3)},
               out_nbytes={"o": 24})
    g.add_task("c", node=0, inputs=(Flow("p", "o", 24),), kernel=bad_consumer)
    from repro.runtime.engine import KernelError

    with pytest.raises(KernelError, match="read-only"):
        Engine(g, simple_machine(), execute=True).run()


def test_kernel_errors_carry_task_identity():
    from repro.runtime.engine import KernelError

    def boom(ins, t):
        raise ZeroDivisionError("boom")

    g = TaskGraph()
    g.add_task(("st", 3, 4, 5), node=0, kernel=boom, kind="boundary")
    with pytest.raises(KernelError, match=r"\('st', 3, 4, 5\).*boundary"):
        Engine(g, simple_machine(), execute=True).run()


def test_execute_missing_output_detected():
    g = TaskGraph()
    g.add_task("p", node=0, kernel=lambda ins, t: {}, out_nbytes={"o": 8})
    g.add_task("c", node=0, inputs=(Flow("p", "o", 8),), kernel=lambda ins, t: {})
    with pytest.raises(RuntimeError, match="consumers expect"):
        Engine(g, simple_machine(), execute=True).run()


def test_execute_mailbox_freed_after_consumption():
    g = TaskGraph()
    g.add_task("p", node=0, kernel=lambda ins, t: {"o": np.zeros(8)},
               out_nbytes={"o": 64})
    g.add_task("c", node=0, inputs=(Flow("p", "o", 64),),
               kernel=lambda ins, t: {})
    engine = Engine(g, simple_machine(), execute=True)
    engine.run()
    assert len(engine._store) == 0


def test_occupancy_metric():
    g = TaskGraph()
    for i in range(4):
        g.add_task(i, node=0, cost=1.0)
    m = simple_machine(nodes=1, cores=3)  # 2 compute workers, 1 node
    eng = Engine(g, m, charge_task_overhead=False)
    rep = eng.run()
    assert rep.occupancy(eng.workers_per_node) == pytest.approx(1.0)
