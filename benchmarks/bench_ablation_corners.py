"""Ablation: CA corner traffic (DESIGN.md #4).

PA1 obliges boundary tiles to buffer corner-neighbour blocks in
addition to the deep side strips; this bench quantifies that cost
(extra messages, extra bytes, extra ghost memory) against the base
scheme, straight from the static graph census -- numbers independent
of any timing model.
"""

from repro.analysis.tables import format_table
from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.spec import ca_plan
from repro.experiments import NACL
from repro.stencil.problem import JacobiProblem

PROBLEM = JacobiProblem(n=5760, iterations=15)
MACHINE = NACL.machine(16)


def _census():
    base = build_base_graph(PROBLEM, MACHINE, tile=288, with_kernels=False)
    ca = build_ca_graph(PROBLEM, MACHINE, tile=288, steps=15, with_kernels=False)
    return base.graph.census(), ca.graph.census(), base, ca


def test_corner_traffic(once, show):
    base_census, ca_census, base, ca = once(_census)
    corner_msgs = sum(
        1
        for (key, tag) in ca.graph.consumers
        if tag.startswith("c")
    )
    corner_bytes = sum(
        flow.nbytes
        for task in ca.graph
        for flow in task.inputs
        if flow.tag.startswith("c")
    )
    rows = [
        ("remote messages", base_census.remote_messages, ca_census.remote_messages),
        ("remote MB", base_census.remote_bytes / 1e6, ca_census.remote_bytes / 1e6),
        ("corner messages", 0, corner_msgs),
        ("corner MB", 0.0, corner_bytes / 1e6),
    ]
    show(format_table(("Quantity", "base", "CA (s=15)"), rows,
                      title="Ablation: CA corner traffic (static census)"))
    # CA sends s-fold fewer messages...
    assert ca_census.remote_messages < base_census.remote_messages / 5
    # ...but moves *more* bytes (replicated halo + corners).
    assert ca_census.remote_bytes > base_census.remote_bytes
    # Corners exist and are a modest fraction of CA's remote bytes.
    assert corner_msgs > 0
    assert corner_bytes < 0.25 * ca_census.remote_bytes


def test_ca_plan_reports_replication(once, show):
    _, _, base, ca = _census()
    p = once(ca_plan, base, ca)
    show(f"CA plan: {p}")
    assert p.extra_ghost_bytes > 0
    assert 0.5 < p.messages_saved_fraction < 1.0
    assert p.boundary_tiles + p.interior_tiles == len(list(base.spec.tiles()))
