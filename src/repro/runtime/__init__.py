"""A PaRSEC-style distributed dataflow task runtime (simulated).

Layers:

* :mod:`~repro.runtime.task` / :mod:`~repro.runtime.graph` -- the task
  and DAG model (tagged flows, like PaRSEC's named dataflows); the
  graph owns the message plan every backend sends by.
* :mod:`~repro.runtime.store` -- the refcounted payload mailbox every
  backend routes task outputs through.
* :mod:`~repro.runtime.engine` -- the discrete-event engine: per-node
  worker pools, a dedicated communication thread per node, a NIC/wire
  network model, and real kernel execution through the payload store.
* :mod:`~repro.runtime.scheduler` -- pluggable ready-queue policies.
* :mod:`~repro.runtime.ptg` / :mod:`~repro.runtime.dtd` -- the two
  PaRSEC programming front-ends (Parameterized Task Graph and Dynamic
  Task Discovery).
* :mod:`~repro.runtime.trace` -- PaRSEC-profiling-style trace capture.
"""

from . import dot
from .dtd import IN, INOUT, OUT, DataHandle, DTDRuntime
from .engine import Engine, EngineReport, KernelError
from .graph import GraphError, TaskGraph
from .ptg import PTG, Dependency, TaskClass
from .scheduler import FifoQueue, LifoQueue, PriorityQueue, make_queue
from .store import PayloadStore
from .task import EdgeCensus, Flow, Task, TaskKey
from .trace import KindStats, Span, Trace, idle_fraction_timeline, kind_statistics

__all__ = [
    "DTDRuntime",
    "dot",
    "DataHandle",
    "Dependency",
    "EdgeCensus",
    "Engine",
    "EngineReport",
    "FifoQueue",
    "Flow",
    "GraphError",
    "KernelError",
    "IN",
    "INOUT",
    "KindStats",
    "LifoQueue",
    "OUT",
    "PTG",
    "PayloadStore",
    "PriorityQueue",
    "Span",
    "Task",
    "TaskClass",
    "TaskGraph",
    "TaskKey",
    "Trace",
    "idle_fraction_timeline",
    "kind_statistics",
    "make_queue",
]
