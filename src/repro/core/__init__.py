"""The paper's contribution: three stencil implementations and the
unified runner.  Names resolve on first access (:mod:`repro._lazy`):
a solve loads the runner and the stencil builders, not the PETSc model,
the analytic model or the validators."""

from .._lazy import lazy_exports

# The pieces users reach for alongside the runner (which loads them anyway).
from ..distgrid.boundary import DirichletBC
from ..stencil.kernels import StencilWeights
from ..stencil.problem import JacobiProblem

#: Re-exported name -> the sub-module that defines it.
_EXPORTS = {
    "build_base_graph": "base_parsec",
    "build_ca_graph": "ca_parsec",
    **dict.fromkeys(("BACKENDS", "IMPLEMENTATIONS", "MODES", "RunConfig",
                     "default_tile"), "config"),
    **dict.fromkeys(("BuildResult", "StencilKernels", "build_stencil_graph"), "dataflow"),
    **dict.fromkeys(("PetscBuildResult", "build_petsc_graph"), "petsc_jacobi"),
    "RunResult": "report",
    "run": "runner",
    "StencilSpec": "spec",
    **dict.fromkeys(("ValidationReport", "validate_implementations"), "validate"),
    **dict.fromkeys(("ScheduleError", "verify_schedule"), "verify"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

__all__ = [
    "BACKENDS",
    "BuildResult",
    "MODES",
    "analytic",
    "DirichletBC",
    "IMPLEMENTATIONS",
    "JacobiProblem",
    "PetscBuildResult",
    "RunConfig",
    "RunResult",
    "StencilKernels",
    "StencilSpec",
    "StencilWeights",
    "ValidationReport",
    "build_base_graph",
    "build_ca_graph",
    "build_petsc_graph",
    "build_stencil_graph",
    "default_tile",
    "run",
    "validate_implementations",
    "ScheduleError",
    "verify_schedule",
]
