"""Task-graph IR: a rewrite pass over finalized graphs.

The builders in :mod:`repro.core` produce a task graph; this package
treats that graph as an intermediate representation and rewrites it
through the one pass a ``passes`` spec names -- coarsening (message
coalescing) -- emitting a machine-checkable
:class:`~repro.ir.report.PassReport` and verifying the rewrite against
the invariants it claims to preserve.

Entry points: ``run(..., passes="coarsen:factor=4")``,
``repro run --passes ...`` and ``repro ir`` on the CLI, and the
``passes`` axis of the autotuner.
"""

from .coarsen import CoarsenPass
from .core import GraphPass, PassError
from .pipeline import INVARIANTS, apply_pass, canonical_pipeline, parse_pipeline
from .report import GraphStats, PassReport
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
    "CoarsenPass",
    "GraphPass",
    "GraphStats",
    "INVARIANTS",
    "PackedPayload",
    "PassError",
    "PassReport",
    "SuperKernel",
    "UnpackKernel",
    "apply_pass",
    "canonical_pipeline",
    "expand_inputs",
    "pack_payload",
    "parse_pipeline",
    "terminal_outputs",
    "topo_levels",
]
