"""The paper's contribution: three stencil implementations and the
unified runner."""

from . import analytic
from .base_parsec import build_base_graph
from .ca_parsec import build_ca_graph
from .config import BACKENDS, IMPLEMENTATIONS, MODES, RunConfig, default_tile
from .dataflow import BuildResult, StencilKernels, build_stencil_graph
from .petsc_jacobi import PetscBuildResult, build_petsc_graph
from .report import RunResult
from .runner import run
from .spec import StencilSpec
from .validate import ValidationReport, validate_implementations
from .verify import ScheduleError, verify_schedule

# Re-export the pieces users reach for alongside the runner.
from ..stencil.problem import JacobiProblem
from ..stencil.kernels import StencilWeights
from ..distgrid.boundary import DirichletBC

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
