"""Occupancy analysis of traces (the quantitative side of Fig. 10).

The paper validates the CA scheme by showing its trace has "more tasks
... executed while network messages are exchanged and we generally
have higher CPU occupancy", plus median kernel times (base 136 ms vs
CA 153 ms on their profiled run -- CA kernels are slower due to the
extra ghost copies, yet the run is faster end to end).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..runtime.trace import Trace, idle_fraction_timeline, kind_statistics, median


@dataclass(frozen=True)
class OccupancyReport:
    """Per-node occupancy summary of one traced run."""

    node: int
    workers: int
    occupancy: float
    median_task_s: float
    median_boundary_s: float
    median_interior_s: float
    mean_task_s: float
    mean_boundary_s: float
    busy_s: float
    makespan_s: float

    def as_row(self) -> tuple:
        return (
            self.node,
            self.occupancy,
            self.median_task_s,
            self.median_boundary_s,
            self.median_interior_s,
        )


def occupancy_report(trace: Trace, node: int, workers: int) -> OccupancyReport:
    """Summarise one node's compute-worker activity."""
    spans = [s for s in trace.compute_spans() if s.node == node]
    durations = sorted(s.duration for s in spans)
    boundary = sorted(s.duration for s in spans if s.kind == "boundary")
    interior = sorted(s.duration for s in spans if s.kind == "interior")
    return OccupancyReport(
        node=node,
        workers=workers,
        occupancy=trace.occupancy(node, workers),
        median_task_s=median(durations),
        median_boundary_s=median(boundary),
        median_interior_s=median(interior),
        mean_task_s=sum(durations) / len(durations) if durations else 0.0,
        mean_boundary_s=sum(boundary) / len(boundary) if boundary else 0.0,
        busy_s=sum(durations),
        makespan_s=trace.makespan(),
    )


def utilisation_timeline(trace: Trace, node: int, workers: int, buckets: int = 50) -> list[float]:
    """Busy-fraction per time bucket (Fig. 10's visual density)."""
    return idle_fraction_timeline(trace, node, workers, buckets)


def compare_occupancy(
    base_trace: Trace, ca_trace: Trace, node: int, workers: int
) -> dict[str, float]:
    """The Fig.-10 head-to-head: occupancy and median kernel time of
    base vs CA on the same node."""
    base = occupancy_report(base_trace, node, workers)
    ca = occupancy_report(ca_trace, node, workers)
    return {
        "base_occupancy": base.occupancy,
        "ca_occupancy": ca.occupancy,
        "occupancy_gain": ca.occupancy - base.occupancy,
        "base_median_task_s": base.median_task_s,
        "ca_median_task_s": ca.median_task_s,
        "base_mean_boundary_s": base.mean_boundary_s,
        "ca_mean_boundary_s": ca.mean_boundary_s,
        "ca_kernel_slowdown": (
            ca.mean_boundary_s / base.mean_boundary_s
            if base.mean_boundary_s > 0
            else 0.0
        ),
        "base_makespan_s": base.makespan_s,
        "ca_makespan_s": ca.makespan_s,
        "ca_speedup": (
            base.makespan_s / ca.makespan_s if ca.makespan_s > 0 else 0.0
        ),
    }


def kind_summary(trace: Trace) -> list[tuple[str, int, float, float]]:
    """(kind, count, total_s, median_s) rows, biggest first."""
    return [(k.kind, k.count, k.total, k.median) for k in kind_statistics(trace)]
