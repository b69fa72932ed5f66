"""Experiment registry: every paper table/figure, indexable by id.

Maps experiment ids to their modules, the paper artefact they
regenerate, and the benchmark file that prints them -- the
machine-readable version of DESIGN.md's per-experiment index.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import (
    fig5_netpipe,
    fig6_tilesize,
    fig7_strong_scaling,
    fig8_kernel_ratio,
    fig9_stepsize,
    fig10_trace,
    headline,
    roofline_exp,
    table1_stream,
)


@dataclass(frozen=True)
class ExperimentEntry:
    id: str
    paper_artifact: str
    description: str
    module: object
    bench: str


REGISTRY: dict[str, ExperimentEntry] = {
    e.id: e
    for e in (
        ExperimentEntry(
            "table1", "Table I", "STREAM bandwidths for NaCL and Stampede2",
            table1_stream, "benchmarks/bench_table1_stream.py",
        ),
        ExperimentEntry(
            "fig5", "Figure 5", "NetPIPE bandwidth vs message size",
            fig5_netpipe, "benchmarks/bench_fig5_netpipe.py",
        ),
        ExperimentEntry(
            "fig6", "Figure 6", "Single-node tile-size tuning",
            fig6_tilesize, "benchmarks/bench_fig6_tilesize.py",
        ),
        ExperimentEntry(
            "fig7", "Figure 7", "Strong scaling: PETSc vs base vs CA",
            fig7_strong_scaling, "benchmarks/bench_fig7_strong_scaling.py",
        ),
        ExperimentEntry(
            "fig8", "Figure 8", "Kernel-adjustment-ratio sweep (base vs CA)",
            fig8_kernel_ratio, "benchmarks/bench_fig8_kernel_ratio.py",
        ),
        ExperimentEntry(
            "fig9", "Figure 9", "CA step-size tuning",
            fig9_stepsize, "benchmarks/bench_fig9_stepsize.py",
        ),
        ExperimentEntry(
            "fig10", "Figure 10", "Execution-trace profiling (occupancy)",
            fig10_trace, "benchmarks/bench_fig10_trace.py",
        ),
        ExperimentEntry(
            "roofline", "Section VI-A", "Roofline effective-peak brackets",
            roofline_exp, "benchmarks/bench_roofline.py",
        ),
        ExperimentEntry(
            "headlines", "Abstract", "2x over PETSc; CA +57%/+33%",
            headline, "benchmarks/bench_headlines.py",
        ),
    )
}


def get(experiment_id: str) -> ExperimentEntry:
    """The registry entry of ``experiment_id``; KeyError naming the choices if none."""
    try:
        return REGISTRY[experiment_id]
    except KeyError:
        raise KeyError(
            f"unknown experiment {experiment_id!r}; choices: {sorted(REGISTRY)}"
        ) from None
