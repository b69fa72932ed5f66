"""The paper's evaluation, one module per table/figure, plus the
registry that indexes them (see DESIGN.md section 4)."""

from .common import (
    NACL,
    NODE_COUNTS,
    RATIOS,
    SETUPS,
    STAMPEDE2,
    STEP_SIZES,
    MachineSetup,
    full_mode,
    iterations,
    setup_by_name,
)
from .registry import REGISTRY, ExperimentEntry, get
from . import projection, weak_scaling

__all__ = [
    "MachineSetup",
    "NACL",
    "NODE_COUNTS",
    "RATIOS",
    "REGISTRY",
    "SETUPS",
    "STAMPEDE2",
    "STEP_SIZES",
    "ExperimentEntry",
    "full_mode",
    "get",
    "iterations",
    "projection",
    "setup_by_name",
    "weak_scaling",
]
