"""repro.exec -- real parallel execution of task graphs.

Where :mod:`repro.runtime.engine` *simulates* a distributed machine on
a virtual clock, this package *executes* the same task graphs on the
actual host, at two levels of realism:

* ``backend="threads"`` -- one shared-memory pool of worker threads
  popping one ready queue, the simulator's node made real;
  communication is free, as within one cluster node;
* ``backend="processes"`` -- one OS process per simulated node, each
  such a pool; node-boundary ghost exchanges are real messages the
  workers write into and copy out of shared-memory rings, so the
  base-vs-CA message-count gap is *measured*, not modelled.

``jobs`` (worker threads per node) defaults to 1 on both.  More
workers share a node's sweep where the graph has several tasks in it:
a stencil build cuts a large node block into row slabs
(``docs/runtime-guide.md``, *Does a second thread help?*); multi-core
across nodes is ``procs``.

Both record wall-clock traces in the existing trace schema and report
measured performance side by side with the simulator's predictions.

Entry points
------------
* :func:`repro.core.runner.run` with ``backend="threads", jobs=N`` or
  ``backend="processes", procs=N`` -- the front door almost everyone
  wants;
* :class:`ThreadedExecutor` / :func:`execute` and
  :class:`ProcessExecutor` / :func:`execute_procs` -- run an arbitrary
  finalized graph directly.  A run is a call: ``run()`` works on the
  calling thread (as worker 0 on ``threads``, watching the node
  processes on ``processes``) and returns the report or raises.
  Another thread stops it with ``executor.cancel()``, and ``run()``
  then raises :class:`RunCancelled`;
* :mod:`repro.exec.compare` -- simulated-vs-measured reports.
"""

from .._lazy import lazy_exports
from ..runtime.report import KernelError, NodeLostError, RunCancelled

#: Re-exported name -> the sub-module that defines it: the simulated-vs-
#: measured comparison loads the simulator, so a run does not load it.
_EXPORTS = {
    **dict.fromkeys(("BACKEND_DESCRIPTIONS", "BACKENDS", "MEASURED_BACKENDS"), "backends"),
    **dict.fromkeys(("BackendComparison", "compare_backends", "format_comparison"),
                    "compare"),
    **dict.fromkeys(("ExecReport", "ThreadedExecutor", "ensure_executable", "execute"),
                    "executor"),
    **dict.fromkeys(("ProcessExecutor", "ProcsReport", "default_procs", "execute_procs",
                     "fork_available"), "procs"),
    **dict.fromkeys(("HOST_NODE", "WallClockRecorder"), "wallclock_trace"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "BACKENDS",
    "BACKEND_DESCRIPTIONS",
    "MEASURED_BACKENDS",
    "BackendComparison",
    "ExecReport",
    "HOST_NODE",
    "KernelError",
    "NodeLostError",
    "ProcessExecutor",
    "ProcsReport",
    "RunCancelled",
    "ThreadedExecutor",
    "WallClockRecorder",
    "compare_backends",
    "default_procs",
    "ensure_executable",
    "execute",
    "execute_procs",
    "fork_available",
    "format_comparison",
]
