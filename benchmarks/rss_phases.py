"""Resident memory of one wall-clock workload, phase by phase.

    python benchmarks/rss_phases.py kernel_large
    python benchmarks/rss_phases.py halo_base --seconds 8
    python benchmarks/rss_phases.py serve_mix --scale toy

Runs a workload of `benchmarks/wallclock/` (its configs, read-only) the
way `run.py` does -- imports, the reference solve, the set-up solves,
then alternating timed pairs -- and reads resident memory around each
phase: the process's peak within the phase (`VmHWM` of
`/proc/self/status`, reset at the phase's start where
`/proc/self/clear_refs` takes it), the largest child's peak so far --
the `processes` backend's node processes: a reaped one's from
`RUSAGE_CHILDREN`, a live one's (a node pool outlives its runs) from its
`VmHWM` -- and the grids resident above what the imports left.  The last line is the
run's envelope, what `peak_rss_mb` reports: the largest phase peak plus
the largest child's.  A recipe for finding where a peak comes from, not
a benchmark: it prints, it gates nothing.
"""

from __future__ import annotations

import argparse
import multiprocessing
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE / "wallclock"))
sys.path.insert(0, str(HERE.parent / "src"))

WORKLOADS = ("kernel_large", "halo_base", "halo_ca", "serve_mix")
MIB = 1024 * 1024


def _status_kib(field: str, pid: str = "self") -> int:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def _largest_child_mib() -> float:
    """The largest peak of a reaped child or of a live one."""
    kib = [resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss]
    for child in multiprocessing.active_children():
        try:
            kib.append(_status_kib("VmHWM", str(child.pid)))
        except (OSError, RuntimeError):  # it exited meanwhile: reaped, counted above
            pass
    return max(kib) / 1024


def _reset_peak() -> bool:
    """Start a new ``VmHWM`` window; False where the kernel refuses."""
    try:
        with open("/proc/self/clear_refs", "w") as fh:
            fh.write("5")
        return True
    except OSError:
        return False


class Phases:
    """The phases of one run and the resident memory of each."""

    def __init__(self) -> None:
        self.grid_mib = 1.0  #: one grid of the workload, once its config is read
        self.rows: list[tuple[str, float, float, float]] = []
        self.base_mib = 0.0
        self.windowed = True
        self._start = 0.0

    def begin(self) -> None:
        self.windowed = _reset_peak() and self.windowed
        self._start = time.perf_counter()

    def end(self, name: str) -> None:
        peak = _status_kib("VmHWM") / 1024
        child = max(_largest_child_mib(), self.rows[-1][2] if self.rows else 0.0)
        if not self.rows:
            self.base_mib = _status_kib("VmRSS") / 1024
        self.rows.append((name, peak, child, time.perf_counter() - self._start))

    def report(self, title: str) -> str:
        lines = [title,
                 f"{'phase':<14} {'self peak MiB':>13} {'grids above imports':>20} "
                 f"{'largest child MiB':>18} {'seconds':>8}"]
        for name, peak, child, seconds in self.rows:
            grids = (peak - self.base_mib) / self.grid_mib
            lines.append(f"{name:<14} {peak:>13.1f} {grids:>20.2f} {child:>18.1f} "
                         f"{seconds:>8.2f}")
        top = max(peak for _, peak, _, _ in self.rows)
        child = self.rows[-1][2]
        lines.append(f"after imports {self.base_mib:.1f} MiB resident; one grid "
                     f"{self.grid_mib:.1f} MiB")
        if not self.windowed:
            lines.append("(/proc/self/clear_refs refused: each peak is the run's so far)")
        lines.append(f"peak {top + child:.1f} MiB = parent {top:.1f} + largest child "
                     f"{child:.1f}")
        return "\n".join(lines)


def batch(name: str, scale: str, seed: int, seconds: float, phases: Phases) -> str:
    import batch_workloads as bw
    import numpy as np

    from repro.core.runner import run

    cfg = bw.CONFIGS[name, scale]
    phases.grid_mib = cfg.n * cfg.ncols * 8 / MIB
    problem, kwargs = bw.make_problem(cfg, seed), cfg.run_kwargs()
    phases.begin()
    truth = problem.reference_solution()
    phases.end("reference")
    phases.begin()
    for _ in range(bw.WARMUPS):
        if not np.array_equal(run(problem, **kwargs).grid, truth):
            raise RuntimeError("set-up solve differs from the reference")
    phases.end("set-up solves")
    phases.begin()
    pairs, failed, _, _ = bw.timed_pairs(problem, truth, seconds,
                                         lambda: run(problem, **kwargs).grid)
    phases.end("timed pairs")
    if failed:
        raise RuntimeError(f"{failed} timed solves failed")
    return (f"{name} ({scale}): {cfg.n} x {cfg.ncols}, {cfg.iterations} sweeps, "
            f"{cfg.backend}, {len(pairs)} pairs")


def serve(scale: str, seed: int, seconds: float, phases: Phases) -> str:
    import serve_workload as sw
    from harness import RunDir

    cfg = sw.CONFIGS[scale]
    phases.grid_mib = cfg.n * cfg.n * 8 / MIB
    rundir = RunDir()
    try:
        phases.begin()
        sw.Stream(cfg, seed).unique(0).reference_solution()
        phases.end("reference")
        phases.begin()
        session = sw.Session(cfg, seed, rundir)
        phases.end("set-up solves")
        try:
            phases.begin()
            records, _, _ = sw.run_window(session, seconds)
            failed = sw.verify(session, records)
            phases.end("timed window")
        finally:
            session.close()
    finally:
        rundir.remove()
    if failed:
        raise RuntimeError(f"{failed} requests failed")
    return f"serve_mix ({scale}): {cfg.n}^2, {cfg.iterations} sweeps, {len(records)} requests"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("workload", choices=WORKLOADS)
    p.add_argument("--scale", choices=("full", "toy"), default="full")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=5.0, help="seconds of timed work")
    args = p.parse_args(argv)
    phases = Phases()
    phases.begin()
    import batch_workloads  # noqa: F401 - what run.py imports before set-up
    import serve_workload  # noqa: F401
    phases.end("imports")
    if args.workload == "serve_mix":
        title = serve(args.scale, args.seed, args.seconds, phases)
    else:
        title = batch(args.workload, args.scale, args.seed, args.seconds, phases)
    print(phases.report(title))
    return 0


if __name__ == "__main__":
    sys.exit(main())
