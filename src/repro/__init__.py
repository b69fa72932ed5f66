"""repro -- Communication-Avoiding 2D stencils over a task-based runtime.

A full-system reproduction of *Communication Avoiding 2D Stencil
Implementations over PaRSEC Task-Based Runtime* (Pei et al., IPDPSW
2020): a PaRSEC-style dataflow runtime with a discrete-event machine
model, three Jacobi-stencil implementations (PETSc-style SpMV, base
task-based, communication-avoiding PA1), and the paper's full
benchmark harness.

Quickstart
----------
>>> import repro
>>> prob = repro.JacobiProblem(n=64, iterations=10)
>>> res = repro.run(prob, impl="ca-parsec", machine=repro.nacl(4),
...                 tile=16, steps=5, mode="execute")
>>> res.grid.shape
(64, 64)
"""

from ._lazy import lazy_exports

__version__ = "1.0.0"

#: Re-exported name -> sub-package that defines it, resolved on first
#: access (see :mod:`repro._lazy`).
_EXPORTS = {
    **dict.fromkeys(("MachineSpec", "NetworkSpec", "NodeSpec", "nacl", "preset",
                     "stampede2", "summit_like"), "machine"),
    **dict.fromkeys(("BACKENDS", "DirichletBC", "IMPLEMENTATIONS", "JacobiProblem",
                     "RunConfig", "RunResult", "StencilSpec", "StencilWeights",
                     "run"), "core"),
    "ThreadedExecutor": "exec",
    **dict.fromkeys(("Engine", "TaskGraph", "Trace"), "runtime"),
    **dict.fromkeys(("Candidate", "SearchSpace", "TuningCache", "TuningResult",
                     "tune"), "tuning"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "BACKENDS",
    "Candidate",
    "DirichletBC",
    "Engine",
    "ThreadedExecutor",
    "IMPLEMENTATIONS",
    "JacobiProblem",
    "MachineSpec",
    "NetworkSpec",
    "NodeSpec",
    "RunConfig",
    "RunResult",
    "SearchSpace",
    "StencilSpec",
    "StencilWeights",
    "TaskGraph",
    "Trace",
    "TuningCache",
    "TuningResult",
    "nacl",
    "preset",
    "run",
    "stampede2",
    "summit_like",
    "tune",
    "__version__",
]
