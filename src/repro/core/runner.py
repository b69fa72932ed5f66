"""Unified front door: run any of the three implementations.

``run(problem, machine, impl=..., ...)`` validates the knobs (one
:class:`~repro.core.config.RunConfig`), builds the task graph,
attaches chaos, makes the executor for the selected backend, runs it
and assembles a
:class:`~repro.core.report.RunResult`.  Two orthogonal knobs select
how much is real: ``mode`` (the fidelity of the *simulated* backend --
timing-only, which is what the benchmark sweeps use, or real kernels)
and ``backend`` (the discrete-event engine, real threads, or real
processes); their values are documented on the config's fields.
"""

from __future__ import annotations

from typing import Any

from ..machine.machine import MachineSpec, nacl
from ..stencil.cost import KernelCostModel
from ..stencil.kernels import active_kernel
from ..stencil.problem import JacobiProblem
from .base_parsec import build_base_graph
from .ca_parsec import build_ca_graph
from .config import BACKENDS, IMPLEMENTATIONS, MODES, RunConfig, applies, default_tile
from .report import RunResult
from .spec import StencilSpec

__all__ = ["BACKENDS", "IMPLEMENTATIONS", "MODES", "default_tile", "run"]


def _publish_critpath(metrics, report, graph) -> None:
    """When a run was both instrumented and traced, mirror its causal
    critical-path analysis into the registry (critpath_seconds,
    critpath_ratio, critpath_comm_share, per-blame seconds) and refresh
    the report's snapshot so ``result.metrics`` carries the gauges the
    regression gate tracks."""
    if metrics is None or getattr(report, "trace", None) is None:
        return
    from ..obs.critpath import critical_path, publish_critpath_metrics

    publish_critpath_metrics(metrics, critical_path(report.trace, graph))
    report.metrics = metrics.snapshot()


def _publish_census(metrics, graph) -> None:
    """The static census is the ground truth the dynamic message
    counters are judged against (`repro stats` prints both)."""
    census = graph.census()
    metrics.gauge(
        "census_messages", help="remote messages the graph implies"
    ).set(census.remote_messages)
    metrics.gauge(
        "census_message_bytes", unit="bytes",
        help="remote payload the graph implies",
    ).set(census.remote_bytes)


def _executed_machine(machine: MachineSpec, config: RunConfig) -> MachineSpec:
    """The machine whose graph ``config.backend`` executes.  A real
    backend builds for the address spaces it really has: ``processes``
    one per node of ``machine`` (``procs`` resized it), ``threads`` one
    for all, so a tiled run on ``threads`` is one node block -- swept
    in place inside the result grid, every flow a token.
    ``machine`` stays the model: what faults target, what the
    simulator prices and what ``RunResult.machine`` reports."""
    if config.backend == "threads" and applies("tile", config.impl):
        return machine.with_nodes(1)
    return machine


def _build(problem: JacobiProblem, machine: MachineSpec, config: RunConfig):
    """Build the resolved ``config.impl``'s task graph for the machine
    the backend executes (:func:`_executed_machine`); returns it with
    the per-implementation entries of ``RunResult.params``."""
    if config.impl == "petsc":
        from ..petsclite.cost import SpMVCostModel
        from .petsc_jacobi import build_petsc_graph

        built = build_petsc_graph(
            problem, machine, cost=SpMVCostModel(machine),
            with_kernels=config.with_kernels,
        )
        return built, {"ranks": machine.nodes * machine.node.cores}
    pgrid = config.pgrid
    executed = _executed_machine(machine, config)
    if executed is not machine:
        # The model still bounds the step size (the one-node spec has no
        # remote side, so any step fits it); its partition places faults.
        StencilSpec.create(problem, machine.nodes, config.tile, config.steps or 1, pgrid)
        machine, pgrid = executed, None
    shared = dict(
        tile=config.tile,
        cost=KernelCostModel(machine, ratio=config.ratio,
                             include_redundant=config.include_redundant),
        with_kernels=config.with_kernels,
        boundary_priority=config.boundary_priority,
        pgrid=pgrid,
    )
    if config.impl == "ca-parsec":
        built = build_ca_graph(problem, machine, steps=config.steps, **shared)
        params = {"tile": config.tile, "steps": config.steps, "ratio": config.ratio}
    else:
        built = build_base_graph(problem, machine, **shared)
        params = {"tile": config.tile, "ratio": config.ratio}
    if config.backend == "sim":  # the machine model prices the paper's tasks
        built = built.per_tile()
    return built, params


def _make_executor(graph, machine: MachineSpec, config: RunConfig,
                   metrics, chaos):
    """The thing with a ``run()`` for ``config.backend``: the
    discrete-event engine or a real executor, built for this graph and
    run once."""
    if config.backend == "sim":
        from ..runtime.engine import Engine

        return Engine(
            graph, machine, policy=config.policy, execute=config.with_kernels,
            overlap=config.overlap, trace=config.trace, metrics=metrics,
            chaos=chaos,
        )
    real = dict(jobs=config.jobs, policy=config.policy, trace=config.trace,
                metrics=metrics)
    if config.backend == "processes":
        real["procs"] = machine.nodes
    if config.backend == "threads":
        from ..exec.executor import ThreadedExecutor

        executor = ThreadedExecutor(graph, **real)
    else:
        from ..exec.procs import ProcessExecutor

        executor = ProcessExecutor(graph, **real)
    if chaos is not None and config.backend == "processes":
        # Forked node processes inherit the context (and its wrapped
        # kernels) in memory; sending workers consult it for drop faults
        # and the watcher stamps NodeLostError with the latest checkpoint.
        executor.chaos = chaos
        executor.checkpoint_store = chaos.store
    return executor


def run(
    problem: JacobiProblem,
    machine: MachineSpec | None = None,
    *,
    metrics=None,
    on_executor=None,
    chaos=None,
    tune_cache=None,
    **knobs: Any,
) -> RunResult:
    """Run ``problem`` with one implementation on one machine model.

    ``knobs`` are the fields of :class:`~repro.core.config.RunConfig`
    -- the one list of a run's declarative knobs, with their meanings,
    defaults and validation -- and mirror the paper's experiment knobs:
    ``tile`` (Fig. 6), ``steps`` (Fig. 9, CA only), ``ratio`` (Fig. 8's
    kernel adjustment), ``trace`` (Fig. 10).  ``backend="threads"``
    executes the graph for real on ``jobs`` worker threads and reports
    wall-clock performance; its one address space runs the grid as one
    node block, while ``machine`` stays the model that faults target
    and the result reports.  ``backend="processes"`` runs each
    simulated node as a real OS process, each with ``jobs`` worker
    threads, and exchanges node-boundary halos as real messages
    through shared-memory rings; passing ``procs`` resizes the machine
    so the process count *is* the node count.  A caller that already holds a
    config passes ``**config.knobs()``.

    ``tile="auto"`` / ``steps="auto"`` hand the knob to the autotuner
    (:mod:`repro.tuning`): a cached winner for this (machine
    fingerprint, problem, impl) is consumed directly; otherwise
    ``tune=True`` spends ``tune_budget`` runs (default 16) on a
    successive-halving search in the simulator (seed 0; measured
    tuning is ``repro tune``'s job), while without ``tune``
    the resolution falls back to the free model-only pick with a
    warning.  ``tune_cache`` is a cache path/object, or ``False`` to
    disable persistence.

    ``metrics`` accepts a :class:`repro.obs.MetricRegistry`; every
    backend publishes its end-of-run counters/gauges into it and the
    resulting snapshot is exposed as ``result.metrics``.
    ``on_executor`` is called with the live engine/executor just
    before the run starts, so a monitor can poll its ``progress()``.

    ``chaos`` accepts a :class:`repro.chaos.ChaosContext`: the built
    graph is instrumented in place (fault injection at kernel entry
    and message delivery, grid checkpoints at CA exchange boundaries)
    before the backend runs it.  A fault-free run pays nothing -- the
    backends only consult the context when one is attached.

    Everything is validated here, before any graph is built or any
    tuning run is spent, so a typo fails with the list of choices
    instead of a confusing error deep in graph construction.
    """
    # validate
    config = RunConfig(**knobs)
    if chaos is not None and not config.with_kernels:
        raise ValueError(
            "chaos needs executable kernels; use mode='execute' or a "
            "real backend"
        )
    machine = machine or nacl(4)
    params: dict[str, Any] = {"mode": config.mode, "policy": config.policy}
    if config.tune or config.auto:
        from ..tuning.search import resolve_auto

        budget = config.tune_budget
        if budget is None:
            budget = 16 if config.tune else 0
        tile, steps, tune_info = resolve_auto(
            problem, impl=config.impl, machine=machine, tile=config.tile,
            steps=config.steps, budget=budget, cache=tune_cache,
            jobs=config.jobs, metrics=metrics,
        )
        config = config.replace(tile=tile, steps=steps)
        params["tune_source"] = tune_info["source"]
    if config.procs is not None and config.procs != machine.nodes:
        machine = machine.with_nodes(config.procs)
    config = config.resolved(problem, machine)

    # build -> attach chaos
    built, impl_params = _build(problem, machine, config)
    recipe = built.graph.recipe  # the build's memfd: closed once the run ends
    params.update(impl_params, overlap=config.overlap)
    if config.with_kernels:
        params["kernel"] = active_kernel()  # "c", or the numpy fallback
    if metrics is not None:
        _publish_census(metrics, built.graph)
    if chaos is not None:
        chaos.attach(built, backend=config.backend, machine=machine, pgrid=config.pgrid)

    # make executor -> run -> assemble
    executor = _make_executor(built.graph, machine, config, metrics, chaos)
    if on_executor is not None:
        on_executor(executor)
    try:
        report = executor.run()
    finally:
        if recipe is not None:
            recipe.close()
    _publish_critpath(metrics, report, built.graph)
    if config.backend != "sim":
        params["backend"] = config.backend
        if config.backend == "processes":
            params["procs"] = executor.procs
        params["jobs"] = executor.jobs
    return RunResult(
        impl=config.impl,
        problem=problem,
        machine=machine,
        engine=report,
        params=params,
        grid=built.assemble_grid(report.results) if config.with_kernels else None,
        graph=built.graph,
    )
