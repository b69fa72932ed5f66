"""Task-graph IR: rewrite passes over finalized graphs.

The builders in :mod:`repro.core` produce a task graph; this package
treats that graph as an intermediate representation and rewrites it
through a configurable pass pipeline -- CA insertion (the paper's
future-work transform) and coarsening (message coalescing) -- each
pass emitting a machine-checkable
:class:`~repro.ir.report.PassReport` and each verified against the
invariants it claims to preserve.

Entry points: ``run(..., passes="coarsen:factor=4")``,
``repro run --passes ...`` and ``repro ir`` on the CLI, and the
``passes`` axis of the autotuner.
"""

from .ca import CAInsertionPass
from .coarsen import CoarsenPass
from .core import GraphPass, PassContext, PassError
from .pipeline import (
    INVARIANTS,
    PASSES,
    PassManager,
    canonical_pipeline,
    parse_pipeline,
    pipeline_spec,
)
from .report import GraphStats, PassReport, PipelineReport
from .rewrite import (
    PackedPayload,
    SuperKernel,
    UnpackKernel,
    expand_inputs,
    pack_payload,
    terminal_outputs,
    topo_levels,
)

__all__ = [
    "CAInsertionPass",
    "CoarsenPass",
    "GraphPass",
    "GraphStats",
    "INVARIANTS",
    "PASSES",
    "PackedPayload",
    "PassContext",
    "PassError",
    "PassManager",
    "PassReport",
    "PipelineReport",
    "SuperKernel",
    "UnpackKernel",
    "canonical_pipeline",
    "expand_inputs",
    "pack_payload",
    "parse_pipeline",
    "pipeline_spec",
    "terminal_outputs",
    "topo_levels",
]
