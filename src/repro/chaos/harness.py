"""Wire a fault plan into a run, and drive recovery around it.

:class:`ChaosContext` is the single object the runner hands to a
backend: it resolves each task's *global* iteration (restart offsets
included), consults the :class:`~repro.chaos.inject.FaultInjector` at
the two interception points every backend shares (kernel entry,
message delivery), and persists grid checkpoints at the CA exchange
boundaries on the way through.

:func:`run_with_recovery` is the recovery driver the ``repro chaos``
CLI and the resilience suite use: run, catch
:class:`~repro.runtime.report.NodeLostError`, restart on the
survivors (a fresh partition of the grid over the shrunken machine),
resuming from the latest complete checkpoint rather than
from scratch.  Because Jacobi is elementwise and tile cores are exact
at every sweep, the recovered grid is *bit-identical* to the
fault-free answer -- the property the whole suite pins.

:func:`execute_with_resume` is the serve-side single-attempt variant:
the service owns the retry budget, so a lost node propagates up as
``NodeLostError`` and the *next* attempt (same signature, same
checkpoint directory) resumes where the last one died.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field, replace
from itertools import accumulate
from pathlib import Path
from typing import Any

import numpy as np

from ..core.config import RunConfig, applies
from ..distgrid.partition import GridPartition, ProcessGrid, even_split
from ..machine.machine import MachineSpec, nacl
from ..runtime.report import NodeLostError
from ..stencil.problem import JacobiProblem
from .checkpoint import CheckpointError, CheckpointStore
from .inject import FaultInjector
from .plan import FaultPlan

#: Exit code a chaos-killed node process dies with (distinguishable
#: from crashes in the parent's logs; any nonzero code trips _watch).
KILL_EXIT_CODE = 117


class GridInit:
    """A picklable initialiser replaying a checkpointed grid.

    ``JacobiProblem.init`` accepts a callable evaluated on global index
    arrays; this one answers from a saved grid, so a restarted problem
    begins exactly where the checkpoint left off -- under any
    partitioning, since indices are global.
    """

    def __init__(self, grid: np.ndarray) -> None:
        self.grid = np.ascontiguousarray(grid, dtype=np.float64)

    def __call__(self, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
        return self.grid[rows, cols]


class ChaosContext:
    """One attempt's bridge between a fault plan and a backend.

    ``base`` is the global sweep the attempt starts from (0 for a
    fresh run, the checkpoint step after a restart): every fault and
    checkpoint decision is made in global iterations, so a plan means
    the same thing across restarts and backends.
    """

    def __init__(
        self,
        injector: FaultInjector,
        store: CheckpointStore | None = None,
        base: int = 0,
        checkpoint_every: int | None = None,
    ) -> None:
        self.injector = injector
        self.store = store
        self.base = int(base)
        self.checkpoint_every = checkpoint_every
        self.backend: str | None = None

    # -- runner hook ----------------------------------------------------

    def attach(self, built, backend: str, machine: MachineSpec,
               pgrid: ProcessGrid | None = None) -> None:
        """Instrument a freshly built graph in place: adjust simulated
        costs for delay/slow, wrap kernels for kill/delay/slow plus
        checkpointing.  Called by the runner between build and run.

        Faults name nodes of the modelled ``machine`` (laid out by
        ``pgrid``).  A task of a stencil build answers for every node
        whose block its cores meet: its own node where the build is the
        model's partition, every node it covers where the backend runs
        fewer, larger blocks (``threads``: one)."""
        self.backend = backend
        inj = self.injector
        kernels = getattr(built, "kernels", None)  # the stencil builds'
        cadence = None
        if kernels is not None:
            spans = _node_spans(built.spec.problem.shape,
                                pgrid or ProcessGrid.square(machine.nodes))
            if self.store is not None:
                spec = built.spec
                cadence = self.checkpoint_every or spec.steps
                self.store.ensure_meta(spec.problem.shape)
                total = self.base + spec.problem.iterations
        for task in built.graph:
            t = task.key[-1]
            gt = self.base + t if isinstance(t, int) and t >= 0 else None
            nodes = (task.node,) if kernels is None or gt is None else tuple(
                _nodes_met(kernels.regions(task.key), spans))
            if gt is not None and backend == "sim":
                for node in nodes:
                    task.cost = inj.sim_cost(node, gt, task.cost)
            ckpt_step = None
            if (
                cadence is not None
                and gt is not None
                and (gt + 1) % cadence == 0
                and gt + 1 < total  # the final grid ships in the result
            ):
                # This task produces sweep gt+1 values on its core.
                ckpt_step = gt + 1
            if task.kernel is not None and (gt is not None or ckpt_step):
                task.kernel = self._wrap(task.kernel, nodes, gt, ckpt_step,
                                         kernels, task.key)

    def _wrap(self, kernel, nodes, gt, ckpt_step, kernels, key):
        inj = self.injector
        backend = lambda: self.backend  # resolved at call time  # noqa: E731

        def chaotic_kernel(inputs, task):
            if gt is not None:
                for node in nodes:
                    if inj.kill_action(node, gt) is not None:
                        self._die(node)
                if backend() != "sim":
                    extra = sum(inj.sleep_for(node, gt) for node in nodes)
                    if extra > 0:
                        time.sleep(extra)
            out = kernel(inputs, task)
            if ckpt_step is not None:
                # The cells this task wrote, as it left them in its node buffer.
                for (r0, c0), cells in kernels.cores_after(key):
                    self.store.save(ckpt_step, r0, c0, cells)
            return out

        return chaotic_kernel

    def _die(self, node: int):
        """Lose the node the way the backend would really lose it:
        hard process death on the process mesh (the parent's watcher
        reports it), a raised :class:`NodeLostError` elsewhere."""
        if self.backend == "processes":
            os._exit(KILL_EXIT_CODE)
        step = self.store.latest_complete() if self.store is not None else None
        raise NodeLostError(
            f"node {node} killed by fault plan", node=node,
            checkpoint_step=step,
        )

    # -- message hook ----------------------------------------------------

    def on_message(self, producer, tag, src: int, dst: int) -> float | None:
        """Drop-fault consult at message-delivery time (the engine's
        arrival event, the procs backend's sending worker).  Returns the
        retransmit delay in seconds, or None to deliver normally.

        A message's iteration is the sweep whose values it carries:
        the producer task at ``t`` publishes iteration ``t + 1``
        ghosts, so ``drop:...,step=2s`` targets the refresh exchange
        at the superstep boundary, as a reader of the plan expects."""
        t = producer[-1] if isinstance(producer, tuple) else None
        gt = self.base + t + 1 if isinstance(t, int) and t >= -1 else None
        return self.injector.drop_delay(src, dst, gt)


def _node_spans(shape: tuple[int, int], pgrid: ProcessGrid):
    """Node rank -> the rows and columns of its block: the grid split
    over ``pgrid`` as :class:`GridPartition` splits it, whatever the
    tile."""
    rows = [0, *accumulate(even_split(shape[0], pgrid.rows))]
    cols = [0, *accumulate(even_split(shape[1], pgrid.cols))]
    return {pgrid.rank(pr, pc): (rows[pr], rows[pr + 1], cols[pc], cols[pc + 1])
            for pr in range(pgrid.rows) for pc in range(pgrid.cols)}


def _nodes_met(regions, spans) -> list[int]:
    """The ranks whose block meets one of ``regions`` (global slices)."""
    regions = list(regions)
    return [node for node, (r0, r1, c0, c1) in spans.items()
            if any(rows.start < r1 and r0 < rows.stop and cols.start < c1 and c0 < cols.stop
                   for rows, cols in regions)]


@dataclass
class ChaosResult:
    """What :func:`run_with_recovery` observed end to end."""

    result: Any  # the final successful RunResult
    attempts: int
    restarts: list[dict] = field(default_factory=list)
    faults: list[dict] = field(default_factory=list)
    wall_elapsed: float = 0.0
    tasks_final_attempt: int = 0

    @property
    def recovered(self) -> bool:
        return bool(self.restarts)

    @property
    def grid(self) -> np.ndarray | None:
        return self.result.grid


def _restore_point(store: CheckpointStore | None):
    """The newest checkpoint that actually reassembles, as
    ``(step, grid)`` -- ``(None, None)`` when none does.  A step that
    fails assembly is skipped rather than trusted."""
    if store is None:
        return None, None
    for step in reversed(store.complete_steps()):
        try:
            return step, store.load_grid(step)
        except CheckpointError:
            continue
    return None, None


def _tail(problem: JacobiProblem, ckpt: int | None, grid) -> JacobiProblem:
    """What is left of ``problem`` after checkpoint sweep ``ckpt``: the
    remaining iterations, starting from the restored ``grid`` (the
    whole problem when there is no checkpoint)."""
    if not ckpt:
        return problem
    return replace(problem, iterations=problem.iterations - ckpt,
                   init=GridInit(grid))


def _publish_chaos_metrics(metrics, faults: list[dict],
                           restarts: list[dict]) -> None:
    """Count what one chaos job (either entry point) went through."""
    if metrics is None:
        return
    c_faults = metrics.counter(
        "chaos_faults_injected_total", help="faults fired by the plan"
    )
    counts: dict[str, int] = {}
    for rec in faults:
        counts[rec["kind"]] = counts.get(rec["kind"], 0) + 1
    for kind, count in sorted(counts.items()):
        c_faults.inc(count, kind=kind)
    if restarts:
        metrics.counter(
            "chaos_recoveries_total", help="checkpoint restarts performed"
        ).inc(len(restarts))


def _fault_state(config: RunConfig, plan: FaultPlan, workdir: Path):
    """The injector and (for the tiled implementations) checkpoint
    store of one chaos job, plus the superstep length ``s`` that fault
    steps and the default checkpoint cadence are counted in."""
    s = config.steps if applies("steps", config.impl) else 1
    injector = FaultInjector(plan, s=s, workdir=workdir)
    store = (
        CheckpointStore(workdir / "ckpt")
        if applies("tile", config.impl) else None
    )
    return s, injector, store


def _attempt_config(config: RunConfig, problem: JacobiProblem) -> RunConfig:
    """``config`` for one attempt at ``problem`` (possibly only the
    tail left after a checkpoint): a CA step never exceeds the sweeps
    that remain."""
    steps = config.steps
    if applies("steps", config.impl) and problem.iterations > 0:
        steps = max(1, min(steps, problem.iterations))
    return config.replace(steps=steps)


def _fitting_steps(config: RunConfig, problem: JacobiProblem,
                   machine: MachineSpec) -> int | None:
    """``config.steps`` clamped to the smallest tile edge of the
    partition a run on ``machine`` gets (a restart's survivors may
    partition into narrower tiles; every step size gives the same
    bits)."""
    if not applies("steps", config.impl):
        return config.steps
    resolved = config.resolved(problem, machine)
    pgrid = config.pgrid or ProcessGrid.square(machine.nodes)
    partition = GridPartition(*problem.shape, pgrid, resolved.tile)
    return min(config.steps, partition.min_tile_dim())


def run_with_recovery(
    problem: JacobiProblem,
    plan: FaultPlan,
    machine: MachineSpec | None = None,
    *,
    checkpoint_dir: str | Path | None = None,
    checkpoint_every: int | None = None,
    max_restarts: int = 3,
    metrics=None,
    **knobs,
) -> ChaosResult:
    """Run ``problem`` under ``plan``, recovering from lost nodes.

    ``knobs`` are :class:`~repro.core.config.RunConfig` fields (here
    defaulting to ``impl="ca-parsec", steps=4`` and always executing
    real kernels).  Each :class:`NodeLostError` triggers one restart on
    the survivors (``machine.with_nodes(n - 1)``, unless a ``pgrid``
    pins the layout or one node remains), partitioned like a fresh run
    on that many nodes, with ``steps`` clamped to its smallest tile
    edge.  It resumes from the latest *complete* checkpoint -- from
    scratch only when the node died before the first boundary.
    Durable fault markers guarantee a consumed kill cannot re-fire on
    the retry.
    """
    from ..core.runner import run

    config = RunConfig(
        **{"impl": "ca-parsec", "steps": 4, "mode": "execute", **knobs}
    )
    if config.auto:
        raise ValueError("chaos runs need concrete tile/steps (no 'auto')")
    machine = machine or nacl(4)

    import tempfile

    tmp = None
    if checkpoint_dir is None:
        tmp = tempfile.TemporaryDirectory(prefix="repro-chaos-")
        checkpoint_dir = tmp.name
    workdir = Path(checkpoint_dir)
    try:
        s, injector, store = _fault_state(config, plan, workdir)
        cadence = checkpoint_every or s

        cur_problem, cur_machine, cur_config = problem, machine, config
        base = 0
        attempts = 0
        restarts: list[dict] = []
        t0 = time.perf_counter()
        while True:
            attempts += 1
            ctx = ChaosContext(
                injector, store=store, base=base, checkpoint_every=cadence
            )
            attempt = _attempt_config(cur_config, cur_problem)
            try:
                result = run(cur_problem, cur_machine, metrics=metrics,
                             chaos=ctx, **attempt.knobs())
                break
            except NodeLostError as exc:
                if len(restarts) >= max_restarts:
                    raise
                ckpt, grid = _restore_point(store)
                cur_problem, base = _tail(problem, ckpt, grid), ckpt or 0
                if cur_machine.nodes > 1 and config.pgrid is None:
                    # The survivors partition the grid as a fresh run
                    # on their count would; checkpoints are partition-free.
                    cur_machine = cur_machine.with_nodes(cur_machine.nodes - 1)
                    cur_config = config.replace(
                        steps=_fitting_steps(config, cur_problem, cur_machine))
                restarts.append({
                    "node": exc.node,
                    "checkpoint": ckpt,
                    "nodes_after": cur_machine.nodes,
                    "reason": str(exc),
                })
        wall = time.perf_counter() - t0

        chaos_result = ChaosResult(
            result=result,
            attempts=attempts,
            restarts=restarts,
            faults=injector.firing_log(),
            wall_elapsed=wall,
            tasks_final_attempt=result.engine.tasks_run,
        )
        _publish_chaos_metrics(metrics, chaos_result.faults, restarts)
        return chaos_result
    finally:
        if tmp is not None:
            tmp.cleanup()


def execute_with_resume(
    request,
    metrics=None,
    on_executor=None,
    checkpoint_dir: str | Path | None = None,
    lifecycle=None,
    trace_id: str | None = None,
    parent_span_id: str | None = None,
    want_trace: bool = False,
):
    """Serve-side chaos execution: ONE attempt, resuming from this
    signature's latest checkpoint if an earlier attempt died.

    The service owns the retry budget, so a lost node propagates as
    :class:`NodeLostError` for the service's failure path to catch; the
    retried job lands back here, finds the checkpoint directory warm,
    and finishes the remaining sweeps instead of starting over.
    Returns a :class:`~repro.serve.request.SolveOutcome` whose
    ``recovered`` / ``faults_injected`` fields record what happened.

    ``lifecycle``/``trace_id`` (a worker's span log plus the request's
    lifecycle context) record a ``recover`` span under
    ``parent_span_id`` when the attempt resumed from a checkpoint;
    ``want_trace`` captures the execution-level trace on the outcome.
    """
    import tempfile

    from ..core.runner import run
    from ..serve.request import outcome_from_result
    from .plan import parse_plan

    plan = parse_plan(request.chaos_plan)
    signature = request.signature()
    root = (
        Path(checkpoint_dir)
        if checkpoint_dir is not None
        else Path(tempfile.gettempdir()) / "repro-serve-chaos"
    )
    workdir = root / signature[:16]
    workdir.mkdir(parents=True, exist_ok=True)

    config = request.resolved().replace(trace=want_trace)
    s, injector, store = _fault_state(config, plan, workdir)

    t_restore = time.monotonic()
    ckpt, ckpt_grid = _restore_point(store)
    problem, base = _tail(request.problem, ckpt, ckpt_grid), ckpt or 0
    if ckpt and lifecycle is not None and trace_id is not None:
        lifecycle.span(
            trace_id, "recover", t_restore, time.monotonic(),
            tenant=request.tenant, parent_span_id=parent_span_id,
            checkpoint_step=ckpt, iterations_remaining=problem.iterations,
        )
    ctx = ChaosContext(injector, store=store, base=base, checkpoint_every=s)

    result = run(
        problem, request.machine, metrics=metrics, on_executor=on_executor,
        chaos=ctx, **_attempt_config(config, problem).knobs(),
    )
    faults = injector.firing_log()
    outcome = outcome_from_result(
        result, signature, tenant=request.tenant, trace_id=trace_id,
        keep_trace=want_trace,
    )
    outcome.recovered = bool(ckpt)
    outcome.faults_injected = len(faults)
    # A resume implies the previous attempt died mid-run; the node-lost
    # alert rule can watch this from the merged registry even when the
    # failing attempt's error swallowed its own metrics.
    _publish_chaos_metrics(
        metrics, faults, [{"node": "resumed"}] if ckpt else []
    )
    return outcome


__all__ = [
    "ChaosContext",
    "ChaosResult",
    "GridInit",
    "KILL_EXIT_CODE",
    "execute_with_resume",
    "run_with_recovery",
]
