"""PETSc-lite: the distributed SpMV substrate the baseline runs on.

Reproduces the PETSc pieces the paper's baseline uses: row-block
distributed ``Vec``s, ``MatMPIAIJ``-style matrices with
diagonal/off-diagonal splitting and overlapped ``MatMult``,
``VecScatter`` ghost gathers, DMDA-like structured-grid assembly of
the weighted 5-point operator, and the SpMV memory-traffic model
behind the 2x performance gap of Fig. 7.
"""

from .cost import SpMVCostModel
from .da import (
    ghost_indices,
    grid_to_vec,
    jacobi_operator,
    natural_layout,
    stencil_coo,
    vec_to_grid,
)
from .mat import MatAIJ
from .scatter import ScatterPlan
from .vec import Vec, VecLayout

__all__ = [
    "MatAIJ",
    "ScatterPlan",
    "SpMVCostModel",
    "Vec",
    "VecLayout",
    "ghost_indices",
    "grid_to_vec",
    "jacobi_operator",
    "natural_layout",
    "stencil_coo",
    "vec_to_grid",
]
