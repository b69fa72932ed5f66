"""Stencil kernels, problem specs, the reference solver and the kernel
cost model."""

from .cost import KernelCostModel
from .kernels import (
    FLOP_PER_POINT,
    StencilWeights,
    jacobi_update_lines,
    jacobi_update_region,
    region_flops,
)
from .problem import JacobiProblem
from .reference import jacobi_reference, residual_norm
from .variable import (
    VariableStencilWeights,
    apply_stencil_lines,
    jacobi_update_region_variable,
)

__all__ = [
    "FLOP_PER_POINT",
    "JacobiProblem",
    "KernelCostModel",
    "StencilWeights",
    "VariableStencilWeights",
    "apply_stencil_lines",
    "jacobi_reference",
    "jacobi_update_lines",
    "jacobi_update_region",
    "jacobi_update_region_variable",
    "region_flops",
    "residual_norm",
]
