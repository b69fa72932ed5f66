"""repro.exec -- real parallel execution of task graphs.

Where :mod:`repro.runtime.engine` *simulates* a distributed machine on
a virtual clock, this package *executes* the same task graphs on the
actual host, at two levels of realism:

* ``backend="threads"`` -- one shared-memory work-stealing thread pool
  runs the numpy kernels (which release the GIL) concurrently;
  communication is free, as within one cluster node;
* ``backend="processes"`` -- one OS process per simulated node, each
  running its own thread pool; node-boundary ghost exchanges are real
  messages the workers write into and copy out of shared-memory rings,
  so the base-vs-CA message-count gap is *measured*, not modelled.

Both record wall-clock traces in the existing trace schema and report
measured performance side by side with the simulator's predictions.

Entry points
------------
* :func:`repro.core.runner.run` with ``backend="threads", jobs=N`` or
  ``backend="processes", procs=N`` -- the front door almost everyone
  wants;
* :class:`ThreadedExecutor` / :func:`execute` and
  :class:`ProcessExecutor` / :func:`execute_procs` -- run an arbitrary
  finalized graph directly;
* :mod:`repro.exec.compare` -- simulated-vs-measured reports.
"""

from .backends import BACKEND_DESCRIPTIONS, BACKENDS, MEASURED_BACKENDS
from .compare import (
    BackendComparison,
    SpeedupPoint,
    compare_backends,
    format_comparison,
    speedup_curve,
)
from .executor import (
    ExecReport,
    ThreadedExecutor,
    default_jobs,
    ensure_executable,
    execute,
)
from ..runtime.engine import KernelError, NodeLostError
from .futures import ExecutionTimeout, RunCancelled, RunHandle
from .policies import EXEC_POLICIES, make_work_queues
from .procs import (
    ProcessExecutor,
    ProcsReport,
    default_procs,
    execute_procs,
    fork_available,
)
from .wallclock_trace import HOST_NODE, WallClockRecorder

__all__ = [
    "BACKENDS",
    "BACKEND_DESCRIPTIONS",
    "MEASURED_BACKENDS",
    "BackendComparison",
    "EXEC_POLICIES",
    "ExecReport",
    "ExecutionTimeout",
    "HOST_NODE",
    "KernelError",
    "NodeLostError",
    "ProcessExecutor",
    "ProcsReport",
    "RunCancelled",
    "RunHandle",
    "SpeedupPoint",
    "ThreadedExecutor",
    "WallClockRecorder",
    "compare_backends",
    "default_jobs",
    "default_procs",
    "ensure_executable",
    "execute",
    "execute_procs",
    "fork_available",
    "format_comparison",
    "make_work_queues",
    "speedup_curve",
]
