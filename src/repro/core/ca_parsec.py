"""CA-PaRSEC: the communication-avoiding tiled stencil (section IV-B2).

Same 2D-block + tile decomposition as the base version, but
node-boundary tiles carry ``steps``-deep ghost regions (plus corner
blocks from the diagonal neighbours) and receive remote data only once
per ``steps`` iterations, performing redundant updates of the
replicated halo in between -- Demmel et al.'s PA1 scheme.  Interior
tiles are untouched: they keep 1-deep ghosts and per-iteration local
copies, so the extra memory cost is confined to the node surface.
"""

from __future__ import annotations

from ..machine.machine import MachineSpec
from ..stencil.cost import KernelCostModel
from ..stencil.problem import JacobiProblem
from .dataflow import BuildResult, build_stencil_graph
from .spec import StencilSpec


def build_ca_graph(
    problem: JacobiProblem,
    machine: MachineSpec,
    tile: int,
    steps: int,
    cost: KernelCostModel | None = None,
    with_kernels: bool = True,
    boundary_priority: bool = True,
    pgrid=None,
) -> BuildResult:
    """Build the CA-PaRSEC task graph with PA1 step size ``steps``.

    ``steps`` must not exceed the smallest tile edge (strips are cut
    from a single neighbouring tile); the paper uses s = 15 with tiles
    of 288 (NaCL) and 864 (Stampede2).
    """
    spec = StencilSpec.create(problem, nodes=machine.nodes, tile=tile, steps=steps,
                              pgrid=pgrid)
    return build_stencil_graph(
        spec,
        machine,
        cost=cost,
        name="ca",
        with_kernels=with_kernels,
        boundary_priority=boundary_priority,
    )
