"""Run results: performance metrics plus (optionally) the final grid."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..machine.machine import MachineSpec
from ..runtime.report import EngineReport
from ..runtime.graph import TaskGraph
from ..runtime.trace import Trace
from ..stencil.problem import JacobiProblem


@dataclass
class RunResult:
    """Outcome of one :func:`repro.core.runner.run` call.

    ``elapsed`` is *virtual* (modelled) seconds on the simulated
    backend and measured *wall-clock* seconds when the run used
    ``backend="threads"``; ``gflops`` divides the problem's nominal
    useful FLOP (9 n^2 per iteration) by it, exactly how the paper
    computes every GFLOP/s figure -- redundant CA work and
    kernel-ratio reductions never change the numerator.
    """

    impl: str
    problem: JacobiProblem
    machine: MachineSpec
    engine: EngineReport
    params: dict[str, Any] = field(default_factory=dict)
    grid: np.ndarray | None = None
    #: The executed task graph, kept so causal analyses (critical
    #: path, trace diffing) can join the trace back onto its
    #: dependencies without rebuilding the graph.
    graph: TaskGraph | None = None
    #: The :class:`repro.ir.PipelineReport` when the run rewrote the
    #: graph through ``passes=...`` -- per-pass before/after census
    #: evidence; None for an unrewritten run.
    pass_reports: Any = None

    @property
    def elapsed(self) -> float:
        return self.engine.elapsed

    @property
    def gflops(self) -> float:
        if self.elapsed <= 0:
            return 0.0
        return self.problem.total_flops / self.elapsed / 1e9

    @property
    def messages(self) -> int:
        return self.engine.messages

    @property
    def message_bytes(self) -> int:
        return self.engine.message_bytes

    @property
    def trace(self) -> Trace | None:
        return self.engine.trace

    @property
    def metrics(self):
        """The :class:`repro.obs.MetricsSnapshot` published by the
        backend, or ``None`` when the run was not instrumented."""
        return getattr(self.engine, "metrics", None)

    @property
    def redundant_fraction(self) -> float:
        """Redundant FLOP as a fraction of useful FLOP (the price CA
        pays for fewer messages)."""
        useful = self.engine.useful_flops
        if useful <= 0:
            return 0.0
        return self.engine.redundant_flops / useful

    @property
    def backend(self) -> str:
        """Which backend produced the numbers (``"sim"`` unless the
        run asked for real execution)."""
        return self.params.get("backend", "sim")

    def occupancy(self) -> float:
        """Mean compute-worker occupancy across nodes (Fig. 10's
        comparison metric).  For a threads- or processes-backend run
        this is the measured busy fraction of the real worker threads
        (averaged over every node process for ``processes``)."""
        if self.backend in ("threads", "processes"):
            return self.engine.occupancy(self.params["jobs"])
        workers = (
            self.machine.node.compute_cores
            if self.params.get("overlap", True)
            else self.machine.node.cores
        )
        return self.engine.occupancy(workers)

    def critpath(self):
        """Causal critical-path analysis of the traced run: a
        :class:`repro.obs.critpath.CritPathReport` with per-segment
        blame, slack, stragglers and worker imbalance.  Requires the
        run to have been traced (``trace=True``)."""
        if self.trace is None:
            raise ValueError(
                "run has no trace; pass trace=True to analyse its critical path"
            )
        from ..obs.critpath import critical_path

        return critical_path(self.trace, self.graph)

    def speedup_over(self, other: "RunResult") -> float:
        """How much faster this run is than ``other`` (elapsed ratio)."""
        if self.elapsed <= 0:
            return float("inf")
        return other.elapsed / self.elapsed

    def to_dict(self) -> dict[str, Any]:
        """Flat record for tables / EXPERIMENTS.md."""
        return {
            "impl": self.impl,
            "machine": self.machine.name,
            "nodes": self.machine.nodes,
            "n": self.problem.shape[0],
            "iterations": self.problem.iterations,
            **self.params,
            "elapsed_s": self.elapsed,
            "gflops": self.gflops,
            "messages": self.messages,
            "message_mb": self.message_bytes / 1e6,
            "redundant_fraction": self.redundant_fraction,
        }

    def summary(self) -> str:
        p = ", ".join(f"{k}={v}" for k, v in self.params.items() if v is not None)
        if self.backend == "threads":
            return (
                f"{self.impl} on {self.params['jobs']} worker threads ({p}): "
                f"{self.elapsed * 1e3:.2f} ms wall, {self.gflops:.2f} GFLOP/s, "
                f"occupancy {self.occupancy():.2f}"
            )
        if self.backend == "processes":
            return (
                f"{self.impl} on {self.params['procs']} processes x "
                f"{self.params['jobs']} threads ({p}): "
                f"{self.elapsed * 1e3:.2f} ms wall, {self.gflops:.2f} GFLOP/s, "
                f"{self.messages} real msgs / {self.message_bytes / 1e6:.2f} MB, "
                f"occupancy {self.occupancy():.2f}"
            )
        return (
            f"{self.impl} on {self.machine.name} x{self.machine.nodes} "
            f"({p}): {self.elapsed * 1e3:.2f} ms, {self.gflops:.2f} GFLOP/s, "
            f"{self.messages} msgs / {self.message_bytes / 1e6:.2f} MB"
        )
