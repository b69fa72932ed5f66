"""Communication avoidance as a rewrite pass.

The paper's Sec. VII sketches "a more generic communication avoiding
framework ... built directly into the runtime system", where "the
generation and the scheduling of the redundant tasks become
transparent to the users".  This pass is that: given only a *base*
(``steps=1``) stencil build it deepens the spec to ``steps=s`` and
rebuilds -- ghost-region deepening on node-facing sides, corner
replication flows, redundant halo updates and the superstep schedule
all follow from :class:`~repro.core.spec.StencilSpec`, and the same
kernels execute.  ``--passes ca:steps=4`` and a hand-built
``ca-parsec --steps 4`` run produce census-identical graphs (the test
suite asserts exactly that against
:func:`~repro.core.ca_parsec.build_ca_graph`).

Unlike the structural passes this one *re-derives* the graph from the
build's :class:`~repro.core.dataflow.StencilSpec`: redundant ghost
flops appear by design, remote bytes grow s-fold while message count
drops s-fold.  It therefore only preserves ``useful_flops`` plus the
terminal time-slice contract, and it demands a base (steps=1) stencil
build to start from.
"""

from __future__ import annotations

from dataclasses import replace

from ..core.dataflow import build_stencil_graph
from ..stencil.cost import KernelCostModel
from .core import GraphPass, PassContext, PassError, int_param, reject_unknown


class CAInsertionPass(GraphPass):
    """Deepen a base stencil build into an s-step CA build."""

    name = "ca"
    preserves = ("useful_flops",)

    def __init__(self, steps: int) -> None:
        #: The s in s-step: time steps advanced per graph wave.
        self.steps = steps

    def params(self) -> dict:
        return {"steps": self.steps}

    @classmethod
    def from_params(cls, params: dict[str, str]) -> "CAInsertionPass":
        steps = int_param(params, "steps", 0, cls.name, minimum=1)
        reject_unknown(params, cls.name)
        if steps < 1:
            raise PassError("pass 'ca' requires steps=<s>, e.g. ca:steps=4")
        return cls(steps=steps)

    def apply(self, build, ctx: PassContext):
        spec = getattr(build, "spec", None)
        if spec is None:
            raise PassError(
                "pass 'ca' needs a stencil build exposing its spec; "
                f"got {type(build).__name__}"
            )
        if spec.steps != 1:
            raise PassError(
                f"pass 'ca' must start from a base (steps=1) build, "
                f"got steps={spec.steps}"
            )
        cost = KernelCostModel(
            ctx.machine,
            ratio=ctx.ratio,
            include_redundant=ctx.include_redundant,
        )
        try:  # the spec itself rejects steps the tiles cannot supply
            deepened = replace(spec, steps=self.steps)
        except ValueError as exc:
            raise PassError(f"pass 'ca': {exc}") from exc
        new_build = build_stencil_graph(
            deepened,
            ctx.machine,
            cost=cost,
            name="ca-auto",
            with_kernels=ctx.with_kernels,
        )
        if not build.blocks:  # the simulator's build stays the paper's graph
            new_build = new_build.per_tile()
        notes = {"steps": self.steps, "tasks": len(new_build.graph)}
        return new_build, notes
