"""A PaRSEC-style distributed dataflow task runtime (simulated).

Layers:

* :mod:`~repro.runtime.task` / :mod:`~repro.runtime.graph` -- the task
  and DAG model (tagged flows, like PaRSEC's named dataflows); the
  graph owns the message plan every backend sends by.  The stencil
  graphs are unrolled from a spec's per-tile, per-phase units in
  :mod:`repro.core.dataflow`.
* :mod:`~repro.runtime.store` -- the refcounted payload mailbox every
  backend routes task outputs through.
* :mod:`~repro.runtime.engine` -- the discrete-event engine: per-node
  worker pools, a dedicated communication thread per node, a NIC/wire
  network model, and real kernel execution through the payload store.
* :mod:`~repro.runtime.scheduler` -- pluggable ready-queue policies.
* :mod:`~repro.runtime.trace` -- PaRSEC-profiling-style trace capture.
"""

from . import dot
from .engine import Engine, EngineReport, KernelError
from .graph import GraphError, TaskGraph
from .scheduler import FifoQueue, LifoQueue, PriorityQueue, make_queue
from .store import PayloadStore
from .task import EdgeCensus, Flow, Task, TaskKey
from .trace import KindStats, Span, Trace, idle_fraction_timeline, kind_statistics

__all__ = [
    "dot",
    "EdgeCensus",
    "Engine",
    "EngineReport",
    "FifoQueue",
    "Flow",
    "GraphError",
    "KernelError",
    "KindStats",
    "LifoQueue",
    "PayloadStore",
    "PriorityQueue",
    "Span",
    "Task",
    "TaskGraph",
    "TaskKey",
    "Trace",
    "idle_fraction_timeline",
    "kind_statistics",
    "make_queue",
]
