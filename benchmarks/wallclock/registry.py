"""The one registry of workloads and metrics.

``BENCHMARK.json`` at the repository root is ``manifest()`` written to
disk (``python benchmarks/wallclock/registry.py > BENCHMARK.json``),
``run.py --list`` prints this registry, and ``run.py`` emits exactly the
metrics named here -- so the manifest, the listing and the numbers
cannot drift apart.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

#: Seconds of timed work in one run.  The driver makes 4 + 22 x 4 = 92
#: runs that must fit 3420 s with their set-up, so a run may cost ~37 s
#: all in; 26 s of timed work, one set-up of 3-5 s and the checks leave
#: a tenth of that spare.
RUN_SECONDS = 26


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ROADMAP open item this workload is the scoreboard for
    roadmap: str


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: allowed worsening as a share of the parent's median (end-to-end
    #: only); 0 means absolute: any worsening at all
    bound: float | None
    definition: str
    #: False: every run reports it and ``compare.py`` judges it, but the
    #: driver's ``BENCHMARK.json`` does not list it as end-to-end
    gated: bool = True


WORKLOADS = (
    Workload(
        "kernel_large",
        "n=2048 on 2 threads: the stencil task body is the critical path, "
        "no IPC, little scheduling",
        "item 2 (in-node speed; target threads >= 2x reference at n=2048)",
    ),
    Workload(
        "halo_base",
        "4096x256 on 2 processes, base-parsec: every task ships a pickled strip "
        "per sweep (4096 msgs)",
        "item 3 (cross-process data path)",
    ),
    Workload(
        "halo_ca",
        "same grid, ca-parsec steps=4: fewer, fatter messages plus redundant updates "
        "on the same pipes",
        "item 3, and the paper's base-vs-CA comparison",
    ),
    Workload(
        "serve_mix",
        "warm service, 2 closed-loop clients, 256^2 solves, 3 executed (cache writes) "
        "per 1 cache hit",
        "item 1's warm serve path; overhead-bound (kernel < 10 % of a request)",
    ),
)

#: The three time-like metrics did not repeat within 0.10 between runs
#: on this host (NOISE.json), so by the issue's noise protocol they are
#: not gated: the bound stays 0.10 for ``compare.py`` and is not widened.
#: ``failed_frac`` is always 0, which the driver cannot take a share of;
#: the driver reads ``failed`` / ``attempted`` from the result line instead.
END_TO_END = (
    Metric("solve_s", "s", "lower", 0.10,
           "median wall seconds of one solve as the caller sees it, tracing off",
           gated=False),
    Metric("mlups", "Mupd/s", "higher", 0.10,
           "useful cell updates per wall second over the timed window, in millions",
           gated=False),
    Metric("speedup_vs_reference", "ratio", "higher", 0.10,
           "plain single-array reference seconds / solve seconds, both timed in this process",
           gated=False),
    Metric("setup_s", "s", "lower", 0.25,
           "process start to the first timed rep: imports, inputs, ground truth, start, warm-up"),
    Metric("peak_rss_mb", "MiB", "lower", 0.10,
           "peak RSS of the benchmark process plus its largest child, reference solve included"),
    Metric("failed_frac", "frac", "lower", 0.0,
           "solves that raised, timed out, were rejected or returned a wrong grid / attempted",
           gated=False),
)


def _layer(name: str, unit: str, better: str, definition: str) -> Metric:
    """A per-layer metric: no bound."""
    return Metric(name, unit, better, None, definition)


PER_LAYER = (
    # core: builders and assembly
    _layer("core.build_s", "s", "lower", "build_base_graph / build_ca_graph, per solve"),
    _layer("core.assemble_s", "s", "lower", "BuildResult.assemble_grid, per solve"),
    _layer("core.tasks", "count", "lower", "tasks in the built graph"),
    _layer("core.census_messages", "count", "lower", "remote messages graph.census() declares"),
    _layer("core.census_bytes", "B", "lower", "remote payload bytes graph.census() declares"),
    _layer("core.redundant_flop_frac", "frac", "lower", "redundant / (useful + redundant) flops"),
    # stencil
    _layer("stencil.reference_s", "s", "lower", "problem.reference_solution(), median"),
    _layer("stencil.tile_update_us", "us", "lower",
       "bare jacobi_update_region on one hot tile of the workload's tile shape"),
    _layer("stencil.kernel_s_est", "s", "lower", "tile_update_us x stencil tasks"),
    _layer("stencil.kernel_share", "frac", "higher", "kernel_s_est / exec.task_busy_s"),
    _layer("stencil.computed_bytes_per_cell", "B/cell", "lower",
       "bytes the kernel's 9 numpy passes move per cell, computed not measured"),
    # distgrid
    _layer("distgrid.extract_us", "us", "lower", "TileSpec.extract of one side strip at halo depth"),
    _layer("distgrid.paste_us", "us", "lower", "TileSpec.paste of one side strip at halo depth"),
    # exec: the thread pool (one per node process on the procs backend)
    _layer("exec.run_s", "s", "lower", "executor.run() timed from outside"),
    _layer("exec.task_busy_s", "s", "lower", "worker seconds inside task bodies, per solve"),
    _layer("exec.task_us", "us", "lower", "task_busy_s / tasks"),
    _layer("exec.worker_idle_frac", "frac", "lower", "1 - busy / (workers x run_s)"),
    _layer("exec.overhead_us_per_task", "us", "lower",
       "(workers x run_s - busy) / tasks: worker time outside task bodies"),
    _layer("exec.steals", "count", "lower", "tasks acquired by work stealing, per solve"),
    _layer("exec.cpu_s", "s", "lower", "process + reaped-children CPU seconds per solve"),
    # exec.procs: pickle + pipe + courier/receiver threads
    _layer("exec.procs.run_s", "s", "lower", "ProcessExecutor.run() timed from outside"),
    _layer("exec.procs.spawn_floor_s", "s", "lower", "same geometry, iterations=1: fork + teardown"),
    _layer("exec.procs.messages", "count", "lower", "pipe messages (merged registry)"),
    _layer("exec.procs.wire_bytes", "B", "lower", "pickled bytes that crossed the pipes"),
    _layer("exec.procs.comm_busy_s", "s", "lower", "courier + receiver busy seconds, all nodes"),
    _layer("exec.procs.us_per_message", "us", "lower", "comm_busy_s / messages"),
    # obs.critpath: which of the above is on the blocking path
    _layer("critpath.compute_frac", "frac", "higher", "critical-path share blamed on task bodies"),
    _layer("critpath.queue_frac", "frac", "lower", "critical-path share waiting for a worker"),
    _layer("critpath.comm_frac", "frac", "lower", "critical-path share in comm + wire + comm-queue"),
    _layer("critpath.startup_frac", "frac", "lower", "critical-path share before the first task"),
    # serve
    _layer("serve.admit_us", "us", "lower", "submit() call to its return"),
    _layer("serve.queue_wait_ms", "ms", "lower", "SolveOutcome.queue_wait_s, executed requests"),
    _layer("serve.exec_ms", "ms", "lower", "SolveOutcome.elapsed, executed requests"),
    _layer("serve.overhead_ms", "ms", "lower", "latency - queue wait - exec, executed requests"),
    _layer("serve.hit_ms", "ms", "lower", "latency of cache hits"),
    _layer("serve.hit_frac", "frac", "higher", "cache hits / requests (0.25 by construction)"),
    _layer("serve.warm_frac", "frac", "higher", "executed requests that ran on a warm executor"),
    _layer("serve.batches", "count", "lower", "serve_batches_total over the window"),
    _layer("serve.p95_ms", "ms", "lower", "95th percentile latency over all requests"),
    _layer("serve.solo_exec_ms", "ms", "lower", "exec_ms of the same requests on a 1-worker service"),
    _layer("serve.concurrency_penalty", "ratio", "lower", "exec_ms / solo_exec_ms"),
    # bench: whether to trust the run
    _layer("bench.trace_overhead_frac", "frac", "lower", "traced / untraced solve seconds - 1"),
    _layer("bench.rep_iqr_frac", "frac", "lower", "quartile spread of the timed reps / their median"),
    _layer("bench.steal_frac", "frac", "lower", "/proc/stat steal share over the window"),
    _layer("bench.timed_s", "s", "higher", "length of the timed window"),
    _layer("bench.unattributed_frac", "frac", "lower", "share of a solve no layer span covers"),
)

END_TO_END_NAMES = tuple(m.name for m in END_TO_END)
PER_LAYER_NAMES = tuple(m.name for m in PER_LAYER)
#: What the driver reads: the gated end-to-end metrics from a timed run,
#: and from a traced run the per-layer metrics plus the end-to-end ones
#: the driver cannot gate.
GATED_NAMES = tuple(m.name for m in END_TO_END if m.gated)
UNGATED = tuple(m for m in END_TO_END if not m.gated)
TRACED_NAMES = tuple(m.name for m in PER_LAYER + UNGATED)
BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}
WORKLOAD_NAMES = tuple(w.name for w in WORKLOADS)


def manifest() -> dict:
    """The content of ``BENCHMARK.json``."""
    return {
        "command": ["python3", "benchmarks/wallclock/run.py"],
        "paths": ["benchmarks/wallclock"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why} for w in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END if m.gated
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER + UNGATED
        ],
    }


def listing() -> str:
    """Human-readable registry (``run.py --list``)."""
    lines = ["workloads:"]
    for w in WORKLOADS:
        lines.append(f"  {w.name:<14} {w.why}")
        lines.append(f"  {'':<14} scoreboard for ROADMAP {w.roadmap}")
    lines.append("end-to-end metrics (every run of every workload):")
    for m in END_TO_END:
        bound = f"bound {m.bound:.2f}" if m.bound else "bound 0 (absolute)"
        gate = "" if m.gated else "  [not gated by the driver: listed under per_layer]"
        lines.append(f"  {m.name:<32} {m.unit:<7} {m.better:<6} {bound}  {m.definition}{gate}")
    lines.append("per-layer metrics (--trace 1; a layer off the workload's path reports 0):")
    for m in PER_LAYER:
        lines.append(f"  {m.name:<32} {m.unit:<7} {m.better:<6} {m.definition}")
    return "\n".join(lines)


if __name__ == "__main__":
    print(json.dumps(manifest(), indent=2))
