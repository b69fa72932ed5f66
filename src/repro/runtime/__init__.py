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
* :mod:`~repro.runtime.report` -- the run report every backend fills and
  the errors a failing kernel or a lost node raises.
* :mod:`~repro.runtime.scheduler` -- pluggable ready-queue policies.
* :mod:`~repro.runtime.trace` -- PaRSEC-profiling-style trace capture.

Names resolve on first access (:mod:`repro._lazy`): a real backend
does not load the engine.
"""

from .._lazy import lazy_exports

#: Re-exported name -> the sub-module that defines it.
_EXPORTS = {
    "Engine": "engine",
    **dict.fromkeys(("EngineReport", "KernelError", "NodeLostError"), "report"),
    **dict.fromkeys(("GraphError", "TaskGraph"), "graph"),
    **dict.fromkeys(("FifoQueue", "LifoQueue", "PriorityQueue", "make_queue"), "scheduler"),
    "PayloadStore": "store",
    **dict.fromkeys(("EdgeCensus", "Flow", "Task", "TaskKey"), "task"),
    **dict.fromkeys(("KindStats", "Span", "Trace", "idle_fraction_timeline",
                     "kind_statistics"), "trace"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "EdgeCensus",
    "Engine",
    "EngineReport",
    "FifoQueue",
    "Flow",
    "GraphError",
    "KernelError",
    "KindStats",
    "LifoQueue",
    "NodeLostError",
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
