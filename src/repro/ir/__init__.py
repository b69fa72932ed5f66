"""Task-graph IR: rewrite passes over finalized graphs.

The builders in :mod:`repro.core` produce a task graph; this package
treats that graph as an intermediate representation and rewrites it
through a configurable pass pipeline -- tile fusion, coarsening,
latency tolerance, CA insertion -- each pass emitting a
machine-checkable :class:`~repro.ir.report.PassReport` and each
verified against the invariants it claims to preserve.

Entry points: ``run(..., passes="fuse,coarsen:factor=4")``,
``repro run --passes ...`` and ``repro ir`` on the CLI, and the
``passes`` axis of the autotuner.
"""

from .ca import CAInsertionPass
from .coarsen import CoarsenPass
from .core import GraphPass, PassContext, PassError
from .fuse import FusePass
from .latency import LatencyPass
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
    FusedKernel,
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
    "FusePass",
    "FusedKernel",
    "GraphPass",
    "GraphStats",
    "INVARIANTS",
    "LatencyPass",
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
