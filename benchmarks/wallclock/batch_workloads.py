"""The three batch workloads: ``kernel_large``, ``halo_base``, ``halo_ca``.

A timed run alternates ``problem.reference_solution()`` with
``repro.core.runner.run(...)`` until ``--seconds`` have passed; a traced
run re-creates ``run()``'s sequence call by call, with a span around
each call into a layer, and then times the layers' public functions
directly.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.runner import run
from repro.distgrid.boundary import DirichletBC
from repro.distgrid.halo import SIDES
from repro.exec.executor import ThreadedExecutor
from repro.exec.procs import ProcessExecutor
from repro.machine.machine import nacl
from repro.obs.critpath import COMM_BLAMES, critical_path
from repro.obs.metrics import MetricRegistry
from repro.runtime.trace import median  # 0 for no values: a layer off the path
from repro.stencil.kernels import jacobi_update_region
from repro.stencil.problem import JacobiProblem

from harness import Spans, cpu_seconds, cpu_ticks, iqr_frac, steal_frac, timed

#: Timed pairs a run makes at least, however short ``--seconds`` is.
MIN_REPS = 3
#: Untimed candidate solves before the first timed rep.
WARMUPS = 2
#: Untraced/traced solve pairs a traced run makes.
TRACED_REPS = 5
#: Bytes per cell ``jacobi_update_region`` moves: 5 multiply passes
#: (read 8, write 8) and 4 accumulate passes (read 8 + 8, write 8).
#: Computed from the kernel's source, not measured.
KERNEL_BYTES_PER_CELL = 5 * 16 + 4 * 24


@dataclass(frozen=True)
class BatchConfig:
    n: int
    ncols: int
    iterations: int
    impl: str
    backend: str
    jobs: int
    tile: int
    #: nodes of the machine model; the process count on ``processes``
    nodes: int = 1
    steps: int = 1

    @property
    def updates(self) -> int:
        """Useful cell updates of one solve (CA's redundant ones do not count)."""
        return self.n * self.ncols * self.iterations

    @property
    def machine(self):
        return nacl(self.nodes)

    @property
    def workers(self) -> int:
        """Worker threads over all pools of one solve."""
        return self.jobs * (self.nodes if self.backend == "processes" else 1)

    def run_kwargs(self) -> dict:
        kw = dict(impl=self.impl, backend=self.backend, jobs=self.jobs, tile=self.tile)
        if self.backend == "processes":
            kw["procs"] = self.nodes
        else:
            kw["machine"] = self.machine
        if self.impl == "ca-parsec":
            kw["steps"] = self.steps
        return kw


_HALO = dict(n=4096, ncols=256, iterations=64, backend="processes", nodes=2, jobs=1, tile=128)
_HALO_TOY = dict(n=256, ncols=32, iterations=8, backend="processes", nodes=2, jobs=1, tile=16)
CONFIGS = {
    ("kernel_large", "full"): BatchConfig(2048, 2048, 16, "base-parsec", "threads", 2, 256),
    ("halo_base", "full"): BatchConfig(impl="base-parsec", **_HALO),
    ("halo_ca", "full"): BatchConfig(impl="ca-parsec", steps=4, **_HALO),
    ("kernel_large", "toy"): BatchConfig(128, 128, 4, "base-parsec", "threads", 2, 32),
    ("halo_base", "toy"): BatchConfig(impl="base-parsec", **_HALO_TOY),
    ("halo_ca", "toy"): BatchConfig(impl="ca-parsec", steps=4, **_HALO_TOY),
}


def make_problem(cfg: BatchConfig, seed: int) -> JacobiProblem:
    """The seed picks the constant initial and boundary values, never
    the amount of work."""
    rng = random.Random(seed)
    return JacobiProblem(n=cfg.n, ncols=cfg.ncols, iterations=cfg.iterations,
                         init=rng.uniform(0.0, 1.0), bc=DirichletBC(rng.uniform(1.0, 2.0)))


def set_up(cfg: BatchConfig, seed: int):
    """Inputs, the ground-truth solve and the warm-up solves (which must
    already be right).  Returns ``(problem, truth)``."""
    problem = make_problem(cfg, seed)
    truth = problem.reference_solution()
    for _ in range(WARMUPS):
        if not np.array_equal(run(problem, **cfg.run_kwargs()).grid, truth):
            raise RuntimeError("warm-up solve differs from the reference")
    return problem, truth


def timed_pairs(problem, truth, seconds, candidate):
    """Alternate reference and candidate reps (R C R C ...) so host
    drift hits both halves of a pair, until ``seconds`` of timed work are
    done; every candidate grid is checked outside the timed region.
    Returns ``(pairs, failed, timed_s, steal)``, ``pairs`` being the
    ``(reference_s, candidate_s)`` of the solves that came back right."""
    pairs: list[tuple[float, float]] = []
    failed = 0
    timed_s = 0.0
    ticks = cpu_ticks()
    while len(pairs) + failed < MIN_REPS or timed_s < seconds:
        ref_dt, _ = timed(problem.reference_solution)
        timed_s += ref_dt
        try:
            dt, grid = timed(candidate)
        except Exception as exc:  # noqa: BLE001 - a failed solve is a counted result
            print(f"solve failed: {exc!r}")
            failed += 1
            continue
        timed_s += dt
        if np.array_equal(grid, truth):
            pairs.append((ref_dt, dt))
        else:
            failed += 1
    return pairs, failed, timed_s, steal_frac(ticks, cpu_ticks())


def end_to_end(cfg: BatchConfig, pairs: list[tuple[float, float]]) -> dict:
    """The three measured end-to-end metrics.  ``solve_s`` is the median
    rep, so a slow mode that becomes more common shows; ``mlups`` is
    mean-based, so stragglers count; the speed-up is the median of the
    per-pair ratios, so drift slower than a pair cancels."""
    if not pairs:
        return {}
    cand_s = [c for _, c in pairs]
    return {
        "solve_s": median(cand_s),
        "mlups": cfg.updates * len(cand_s) / sum(cand_s) / 1e6,
        "speedup_vs_reference": median([r / c for r, c in pairs]),
    }


def samples(pairs: list[tuple[float, float]]) -> dict:
    return {"reference_s": [r for r, _ in pairs], "solve_s": [c for _, c in pairs]}


def measure_timed(cfg: BatchConfig, seed: int, seconds: float) -> dict:
    problem, truth = set_up(cfg, seed)
    kwargs = cfg.run_kwargs()
    t_first_rep = time.perf_counter()
    pairs, failed, timed_s, steal = timed_pairs(
        problem, truth, seconds, lambda: run(problem, **kwargs).grid)
    return {
        "end_to_end": end_to_end(cfg, pairs),
        "attempted": len(pairs) + failed,
        "failed": failed,
        "t_first_rep": t_first_rep,
        "samples": samples(pairs),
        "diagnostics": {"bench.rep_iqr_frac": iqr_frac([c for _, c in pairs]),
                        "bench.steal_frac": steal, "bench.timed_s": timed_s},
    }


# -- traced run ----------------------------------------------------------


def staged_solve(cfg: BatchConfig, problem, spans: Spans, solve_id: int) -> dict:
    """``run()``'s sequence for a real backend, one span per call into a
    layer.  Returns the grid plus what the layers reported."""
    machine = cfg.machine
    registry = MetricRegistry()
    cpu0 = cpu_seconds()
    with spans.span("solve", None, solve_id) as root:
        with spans.span("core.build", root, solve_id):
            if cfg.impl == "base-parsec":
                built = build_base_graph(problem, machine, tile=cfg.tile)
            else:
                built = build_ca_graph(problem, machine, tile=cfg.tile, steps=cfg.steps)
        with spans.span("core.census", root, solve_id):
            census = built.graph.census()
        with spans.span("exec.construct", root, solve_id):
            if cfg.backend == "threads":
                executor = ThreadedExecutor(built.graph, jobs=cfg.jobs, policy="priority",
                                            trace=True, metrics=registry)
            else:
                executor = ProcessExecutor(built.graph, procs=machine.nodes, jobs=cfg.jobs,
                                           policy="priority", trace=True, metrics=registry)
        with spans.span("exec.run", root, solve_id):
            report = executor.run()
        with spans.span("core.assemble", root, solve_id):
            grid = built.assemble_grid(report.results)
    cpu = cpu_seconds() - cpu0
    # The instrument, not the solve: run() only does this when asked to.
    with spans.span("obs.critpath", None, solve_id):
        crit = critical_path(report.trace, built.graph)
    return {"grid": grid, "graph": built.graph, "census": census, "report": report,
            "snapshot": registry.snapshot(), "crit": crit, "cpu_s": cpu}


def _median_us(fn, reps: int = 200) -> float:
    """Median microseconds of a direct call on hot data."""
    fn()
    samples = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        samples.append(time.perf_counter() - t0)
    return median(samples) * 1e6


def direct_call_metrics(cfg: BatchConfig, problem) -> dict:
    """The layers' public functions on this workload's shapes."""
    from repro.core.spec import StencilSpec

    spec = StencilSpec.create(problem, nodes=cfg.machine.nodes, tile=cfg.tile, steps=cfg.steps)
    tile = spec.tile(0, 0)
    ext = tile.alloc_ext(fill=1.0)
    rows, cols = tile.core_slices()
    out = {"stencil.tile_update_us": _median_us(
        lambda: jacobi_update_region(ext, problem.weights, rows, cols))}
    # One side strip at the workload's halo depth: the s-deep remote
    # strip where the tile has a remote side, else the 1-deep local one.
    strip = next(s for s in (spec.deep_strip(tile, side) or spec.local_strip(tile, side, 0)
                             for side in SIDES) if s is not None)
    source, pad = strip.source_region(tile.h, tile.w), strip.pad_region(tile.h, tile.w)
    values = tile.extract(ext, source)
    out["distgrid.extract_us"] = _median_us(lambda: tile.extract(ext, source))
    out["distgrid.paste_us"] = _median_us(lambda: tile.paste(ext, pad, values))
    return out


def layer_metrics(cfg: BatchConfig, stages: list[dict], spans: Spans) -> dict:
    """Per-layer numbers of the staged solves: medians over the reps
    for times, the (exactly repeating) last rep for counts."""
    last = stages[-1]
    graph, census, report = last["graph"], last["census"], last["report"]
    tasks = len(graph)
    useful, redundant = graph.total_flops()
    workers = cfg.workers
    run_s = median(spans.durations("exec.run"))
    busy = median([sum(s["report"].worker_busy.values()) for s in stages])
    m = {
        "core.build_s": median(spans.durations("core.build")),
        "core.assemble_s": median(spans.durations("core.assemble")),
        "core.tasks": tasks,
        "core.census_messages": census.remote_messages,
        "core.census_bytes": census.remote_bytes,
        "core.redundant_flop_frac": redundant / (useful + redundant),
        "exec.run_s": run_s,
        "exec.task_busy_s": busy,
        "exec.task_us": busy / tasks * 1e6,
        "exec.worker_idle_frac": 1.0 - busy / (workers * run_s),
        "exec.overhead_us_per_task": (workers * run_s - busy) / tasks * 1e6,
        "exec.steals": report.steals,
        "exec.cpu_s": median([s["cpu_s"] for s in stages]),
    }
    shares = [s["crit"].blame_shares() for s in stages]
    m["critpath.compute_frac"] = median([b.get("compute", 0.0) for b in shares])
    m["critpath.queue_frac"] = median([b.get("queue", 0.0) for b in shares])
    m["critpath.comm_frac"] = median([sum(b.get(k, 0.0) for k in COMM_BLAMES) for b in shares])
    m["critpath.startup_frac"] = median([b.get("startup", 0.0) for b in shares])
    if cfg.backend == "processes":
        snap = last["snapshot"]
        messages = snap.counter("messages_total")
        comm_busy = median([s["snapshot"].counter("comm_busy_seconds_total") for s in stages])
        m.update({
            "exec.procs.run_s": run_s,
            "exec.procs.messages": messages,
            "exec.procs.wire_bytes": snap.counter("wire_bytes_total"),
            "exec.procs.comm_busy_s": comm_busy,
            "exec.procs.us_per_message": comm_busy / messages * 1e6 if messages else 0.0,
        })
    return m


def stencil_metrics(m: dict, graph, reference_s) -> dict:
    """The stencil layer's numbers; needs ``stencil.tile_update_us`` and
    ``exec.task_busy_s`` in ``m``."""
    stencil_tasks = sum(1 for t in graph if t.kind != "init")
    estimate = m["stencil.tile_update_us"] * 1e-6 * stencil_tasks
    return {
        "stencil.reference_s": median(reference_s),
        "stencil.kernel_s_est": estimate,
        "stencil.kernel_share": estimate / m["exec.task_busy_s"],
        "stencil.computed_bytes_per_cell": KERNEL_BYTES_PER_CELL,
    }


def spawn_floor_s(cfg: BatchConfig, problem, reps: int = 3) -> float:
    """``ProcessExecutor.run()`` on the same geometry with one sweep:
    what forking the nodes and tearing them down costs."""
    one = JacobiProblem(n=cfg.n, ncols=cfg.ncols, iterations=1, init=problem.init, bc=problem.bc)
    samples = []
    for _ in range(reps):
        built = build_base_graph(one, cfg.machine, tile=cfg.tile)
        executor = ProcessExecutor(built.graph, procs=cfg.machine.nodes, jobs=cfg.jobs,
                                   policy="priority")
        samples.append(timed(executor.run)[0])
    return median(samples)


def measure_traced(cfg: BatchConfig, seed: int) -> dict:
    """Alternate reference, untraced ``run()`` and staged traced solves
    -- a fixed, short amount of work -- then call the layers directly."""
    spans = Spans()
    problem, truth = set_up(cfg, seed)
    kwargs = cfg.run_kwargs()
    t_first_rep = time.perf_counter()
    ticks = cpu_ticks()
    pairs, stages, failed = [], [], 0
    for rep in range(TRACED_REPS):
        ref_dt, _ = timed(problem.reference_solution)
        dt, grid = timed(lambda: run(problem, **kwargs).grid)
        pairs.append((ref_dt, dt))
        failed += not np.array_equal(grid, truth)
        _, stage = timed(lambda: staged_solve(cfg, problem, spans, rep))
        failed += not np.array_equal(stage.pop("grid"), truth)
        stages.append(stage)
    traced_s = spans.durations("solve")
    plain_s = [c for _, c in pairs]

    m = layer_metrics(cfg, stages, spans)
    m.update(direct_call_metrics(cfg, problem))
    m.update(stencil_metrics(m, stages[-1]["graph"], [r for r, _ in pairs]))
    if cfg.backend == "processes":
        m["exec.procs.spawn_floor_s"] = spawn_floor_s(cfg, problem)
    m["bench.trace_overhead_frac"] = median(traced_s) / median(plain_s) - 1.0
    m["bench.unattributed_frac"] = spans.unattributed_frac("solve")
    m["bench.rep_iqr_frac"] = iqr_frac(plain_s)
    m["bench.steal_frac"] = steal_frac(ticks, cpu_ticks())
    m["bench.timed_s"] = sum(r + c for r, c in pairs) + sum(traced_s)
    problems = []
    if cfg.backend == "processes" and m["exec.procs.messages"] != m["core.census_messages"]:
        problems.append(f"exec.procs.messages {m['exec.procs.messages']} != "
                        f"core.census_messages {m['core.census_messages']}")
    return {
        "end_to_end": end_to_end(cfg, pairs),
        "per_layer": m,
        "attempted": 2 * TRACED_REPS,
        "failed": failed,
        "t_first_rep": t_first_rep,
        "samples": {**samples(pairs), "traced_solve_s": traced_s},
        "spans": spans,
        "problems": problems,
    }
