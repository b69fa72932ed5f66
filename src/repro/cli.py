"""Command-line interface: ``python -m repro ...``.

Gives the library's main entry points a shell-friendly face, one
subcommand each, in ``--help`` order:

* ``run`` -- run one implementation on one machine configuration and
  print the performance summary (optionally verify against the
  reference or export a Chrome trace); ``--backend threads --jobs N``
  executes the graph for real on N worker threads (default 1);
* ``tune`` -- model-guided autotuning of tile size, CA step size and
  scheduling policy (successive halving under a run budget, winners
  cached per machine fingerprint; see ``docs/tuning-guide.md``);
* ``stats`` -- an instrumented run with a post-run metric summary,
  its top critical-path segments, baseline recording
  (``--write-baseline``) and the perf-regression gate (``--check``,
  exit 1 on regression; see ``docs/observability.md``);
* ``trace-diff`` -- run two implementations on the same problem and
  report where the time moved (defaults to the Fig.-10 base-vs-CA
  configuration; ``--assert-comm-drop`` exits 1 unless CA shows a
  strictly lower communication share of critical-path time);
* ``experiment`` -- regenerate one of the paper's tables/figures by
  registry id (``table1``, ``fig5`` ... ``headlines``);
* ``serve`` -- run the persistent solver service against synthetic
  multi-tenant traffic with live queue/progress lines and a serving
  summary (warm-worker starts, cache hit-rate, dedup, admission rejects;
  see ``docs/serving.md``);
* ``submit`` -- submit one solve through a transient service backed
  by the persistent on-disk result cache: a repeated identical
  invocation is served from the cache and executes zero tasks;
* ``slo`` / ``postmortem`` -- per-tenant latency percentiles and
  error-budget burn from canned traffic, and a flight-recorder dump
  rendered as a terminal timeline;
* ``chaos`` -- run one workload twice, fault-free and under a seeded
  fault plan (``--plan "kill:node=3,step=2s"``), recover via
  checkpoint restart and assert the final grids are bit-identical
  with bounded makespan inflation (see ``docs/chaos.md``).

``docs/architecture.md`` names the consumer each subcommand backs.
"""

from __future__ import annotations

import argparse
import sys

from .analysis.tables import format_table
from .core.config import APPLIES, BACKENDS, IMPLEMENTATIONS, SERVE, RunConfig
from .core.runner import run
from .exec.backends import MEASURED_BACKENDS
from .machine.machine import preset
from .stencil.problem import JacobiProblem


def _add_problem_flags(p: argparse.ArgumentParser, n: int, iterations: int,
                       nodes: int = 4) -> None:
    """What to solve and on which machine model (the run's knobs come
    from ``RunConfig.add_flags``)."""
    p.add_argument("--machine", default="nacl", help="machine preset name")
    p.add_argument("--nodes", type=int, default=nodes)
    p.add_argument("--n", type=int, default=n, help="grid edge length")
    p.add_argument("--iterations", type=int, default=iterations)


def _problem_machine(args: argparse.Namespace):
    return (JacobiProblem(n=args.n, iterations=args.iterations),
            preset(args.machine, nodes=args.nodes))


def _add_run_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("run", help="run one stencil implementation")
    _add_problem_flags(p, n=1152, iterations=20)
    RunConfig.add_flags(p, impl="ca-parsec")
    p.add_argument("--execute", action="store_true",
                   help="run real kernels and check against the reference")
    p.add_argument("--trace-out", default=None, metavar="FILE.json",
                   help="write a Chrome trace-event file")


def _add_tune_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "tune",
        help="autotune tile/step/policy (model shortlist + successive halving)",
    )
    # Not a run: --impl is what to tune, --backend what refines the
    # shortlist, so the tuner declares its own flags.
    p.add_argument("--impl", choices=APPLIES["tile"], default="ca-parsec")
    _add_problem_flags(p, n=4608, iterations=8)
    p.add_argument("--budget", type=int, default=24,
                   help="maximum number of tuning runs (model ranking is free)")
    p.add_argument("--backend", choices=BACKENDS, default="sim",
                   help="backend that refines the shortlist (sim = "
                        "discrete-event model; threads/processes measure "
                        "the finalists on this host)")
    p.add_argument("--jobs", type=int, default=None,
                   help="worker threads for measured refinement runs")
    p.add_argument("--timeout", type=float, default=None,
                   help="per-candidate seconds for measured runs")
    p.add_argument("--seed", type=int, default=0,
                   help="exploration seed (same seed + budget => same winner)")
    p.add_argument("--cache-path", default=None, metavar="FILE.json",
                   help="tuning cache location (default "
                        "$REPRO_TUNING_CACHE or ~/.cache/repro/tuning.json)")
    p.add_argument("--no-cache", action="store_true",
                   help="neither consult nor write the cache")
    p.add_argument("--force", action="store_true",
                   help="re-tune even when the cache already has a winner")
    p.add_argument("--wide", action="store_true",
                   help="also search policy/overlap/boundary-priority axes")
    p.add_argument("--csv-out", default=None, metavar="FILE.csv",
                   help="write the per-trial records as CSV")


def _add_stats_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "stats",
        help="instrumented run: metric summary, baselines and the "
             "perf-regression gate",
    )
    _add_problem_flags(p, n=256, iterations=8)
    RunConfig.add_flags(p, auto=True, impl="ca-parsec", steps=4)
    p.add_argument("--check", default=None, metavar="FILE.json",
                   help="compare against a recorded baseline "
                        "(obs-baseline or BENCH_*.json); exit 1 on "
                        "regression")
    p.add_argument("--write-baseline", default=None, metavar="FILE.json",
                   help="record this run as an obs-baseline document")
    p.add_argument("--tolerance", type=float, default=0.10,
                   help="allowed relative drift per gated metric")
    p.add_argument("--section", action="append", default=None,
                   metavar="NAME",
                   help="restrict a BENCH_*.json check to one section "
                        "(repeatable); --section serve runs a canned "
                        "service workload and reports/gates its serving "
                        "metrics instead of a single run")


def _add_trace_diff_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "trace-diff",
        help="run two implementations and report where the time moved "
             "(defaults to the Fig.-10 base-vs-CA configuration)",
    )
    p.add_argument("--impl-a", choices=IMPLEMENTATIONS, default="base-parsec")
    p.add_argument("--impl-b", choices=IMPLEMENTATIONS, default="ca-parsec")
    _add_problem_flags(p, n=23040, iterations=8, nodes=16)
    # ratio 0.2: the paper's profiled run is comm-bound.
    RunConfig.add_flags(p, omit=("impl",), tile=288, ratio=0.2)
    p.add_argument("--top", type=int, default=5,
                   help="task movers to list")
    p.add_argument("--assert-comm-drop", action="store_true",
                   help="exit 1 unless run B shows a strictly lower "
                        "communication share of critical-path time")
    p.add_argument("--flame-out-a", default=None, metavar="FILE.folded",
                   help="write run A's collapsed stacks")
    p.add_argument("--flame-out-b", default=None, metavar="FILE.folded",
                   help="write run B's collapsed stacks")


def _add_experiment_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser("experiment", help="regenerate a paper table/figure")
    p.add_argument("id", help="experiment id (use 'list' to enumerate)")


def _add_serve_request_flags(p: argparse.ArgumentParser) -> None:
    """The solve-shape knobs shared by ``serve`` and ``submit``."""
    _add_problem_flags(p, n=96, iterations=6)
    # --backend is the execution backend inside the service workers.
    RunConfig.add_flags(p, omit=("policy", "procs"),
                        choices={"backend": MEASURED_BACKENDS},
                        backend="threads")


def _add_traffic_flags(p: argparse.ArgumentParser, requests: int = 4) -> None:
    """The request shape plus the size of the canned traffic."""
    _add_serve_request_flags(p)
    p.add_argument("--tenants", type=int, default=2,
                   help="synthetic tenants submitting traffic")
    p.add_argument("--requests", type=int, default=requests,
                   help="requests per tenant (the second half repeats "
                        "the first, exercising the result cache)")
    p.add_argument("--workers", type=int, default=2,
                   help="runner threads, each owning one worker (= "
                        "concurrent solves in flight)")


def _add_serve_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "serve",
        help="run the solver service against synthetic multi-tenant "
             "traffic (live progress + serving summary)",
    )
    _add_traffic_flags(p, requests=6)
    p.add_argument("--pool", choices=("threads", "processes"),
                   default="threads",
                   help="what a worker is -- the thing each runner "
                        "keeps warm between requests: an in-process "
                        "object, or a persistent forked child (closed "
                        "after 30 s idle, replaced when it dies); "
                        "executors are built per request")
    p.add_argument("--queue-depth", type=int, default=64,
                   help="admission bound (submissions beyond it are "
                        "fast-rejected)")
    p.add_argument("--tenant-limit", type=int, default=2,
                   help="per-tenant in-flight cap")
    p.add_argument("--deadline", type=float, default=None,
                   help="per-request deadline in seconds")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result-cache directory (default: a private "
                        "temporary directory for this invocation)")
    p.add_argument("--no-cache", action="store_true",
                   help="disable the result cache")
    p.add_argument("--interval", type=float, default=0.5,
                   help="seconds between live progress samples")
    p.add_argument("--trace-out", default=None, metavar="FILE.json",
                   help="write the combined lifecycle + execution "
                        "timeline as Chrome trace events (enables "
                        "per-request execution tracing)")
    p.add_argument("--otel-out", default=None, metavar="FILE.json",
                   help="write the combined timeline as an OTel OTLP "
                        "JSON document")


def _add_slo_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "slo",
        help="per-tenant SLO report (latency percentiles, error-budget "
             "burn) from canned multi-tenant traffic",
    )
    _add_traffic_flags(p)
    p.add_argument("--objective", type=float, default=0.99,
                   help="availability objective the error budget burns "
                        "against")
    p.add_argument("--fault", default=None, metavar="PLAN",
                   help="also submit one zero-retry request under this "
                        "chaos plan (e.g. 'kill:node=1,step=1s'): the "
                        "terminal failure exercises the flight recorder "
                        "and prints the postmortem dump path")
    p.add_argument("--dump-dir", default=None, metavar="DIR",
                   help="directory flight-recorder dumps land in "
                        "(default: <tempdir>/repro-postmortem)")


def _add_postmortem_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "postmortem",
        help="render a flight-recorder dump as a terminal timeline "
             "with blame",
    )
    p.add_argument("dump", help="postmortem JSON the service dumped "
                                "(see `repro slo --fault` or "
                                "SolverService.stats()['postmortems'])")
    p.add_argument("--width", type=int, default=100,
                   help="maximum rendered line width")


def _add_submit_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "submit",
        help="submit one solve through a transient service (persistent "
             "disk cache: a repeat invocation executes zero tasks)",
    )
    _add_serve_request_flags(p)
    p.add_argument("--tenant", default="default")
    p.add_argument("--priority", type=int, default=0)
    p.add_argument("--deadline", type=float, default=None,
                   help="deadline in seconds for this request")
    p.add_argument("--timeout", type=float, default=300.0,
                   help="seconds to wait for the outcome")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="result-cache directory (default "
                        "$REPRO_SERVE_CACHE or ~/.cache/repro/serve)")
    p.add_argument("--no-cache", action="store_true",
                   help="neither consult nor write the result cache")


def _add_chaos_parser(sub: argparse._SubParsersAction) -> None:
    p = sub.add_parser(
        "chaos",
        help="fault-injection round trip: run under a fault plan, "
             "recover, assert bit-identical grids",
    )
    p.add_argument("--plan", required=True,
                   help="fault plan, e.g. 'kill:node=3,step=2s' or "
                        "'kill:node=3,step=2s;delay:node=1,step=3,secs=0.01' "
                        "(kinds: kill, delay, slow, drop)")
    p.add_argument("--seed", type=int, default=0,
                   help="plan seed recorded in the fingerprint")
    _add_problem_flags(p, n=192, iterations=24)
    RunConfig.add_flags(p, omit=("ratio", "procs"),
                        choices={"impl": APPLIES["tile"]},
                        impl="ca-parsec", tile=48, steps=4, backend="threads")
    p.add_argument("--max-restarts", type=int, default=3,
                   help="recovery attempts before giving up")
    p.add_argument("--checkpoint-every", type=int, default=None,
                   help="checkpoint cadence in sweeps (default: the CA "
                        "step size s -- the paper's exchange boundary)")
    p.add_argument("--checkpoint-dir", default=None,
                   help="keep checkpoint/fault state here (default: a "
                        "temporary directory)")
    p.add_argument("--inflation-bound", type=float, default=2.0,
                   help="fail if chaos wall time exceeds this multiple "
                        "of the fault-free run")


def _cmd_run(args: argparse.Namespace) -> int:
    problem, machine = _problem_machine(args)
    config = RunConfig.from_args(
        args, mode="execute" if args.execute else "simulate",
        trace=args.trace_out is not None,
    )
    result = run(problem, machine, **config.knobs())
    print(result.summary())
    if args.execute:
        import numpy as np

        err = float(np.max(np.abs(result.grid - problem.reference_solution())))
        print(f"max |error| vs reference: {err:.3e}")
        if err > 1e-9:
            print("VALIDATION FAILED", file=sys.stderr)
            return 1
    if args.trace_out:
        from .obs import export

        export.write(result.trace, args.trace_out)
        print(f"trace written to {args.trace_out} (open in chrome://tracing)")
    return 0


def _cmd_tune(args: argparse.Namespace) -> int:
    from .tuning import TuningCache, format_tuning_report, tune
    from .tuning.space import SearchSpace

    problem, machine = _problem_machine(args)
    if args.no_cache:
        cache = False
    elif args.cache_path is not None:
        cache = TuningCache(args.cache_path)
    else:
        cache = None  # tune() resolves the default location
    space = None
    if args.wide:
        space = SearchSpace.for_problem(
            problem, machine, impl=args.impl, wide=True
        )
    result = tune(
        problem,
        impl=args.impl,
        machine=machine,
        backend=args.backend,
        budget=args.budget,
        space=space,
        cache=cache,
        seed=args.seed,
        timeout=args.timeout,
        jobs=args.jobs,
        force=args.force,
    )
    print(format_tuning_report(result))
    if args.csv_out:
        result.to_csv(args.csv_out)
        print(f"trial records written to {args.csv_out}")
    return 0


def _instrumented_run(args: argparse.Namespace, config: dict | None = None,
                      want_trace: bool = False):
    """One run with a metrics registry attached; ``config`` (from an
    obs-baseline document) overrides the CLI flags so a check re-runs
    exactly the recorded configuration.  Returns the RunResult."""
    from .obs import MetricRegistry

    # A recorded value replaces the flag of the same name, nothing else.
    recorded = {k: v for k, v in (config or {}).items() if hasattr(args, k)}
    args = argparse.Namespace(**{**vars(args), **recorded})
    problem, machine = _problem_machine(args)
    return run(
        problem, machine, metrics=MetricRegistry(),
        **RunConfig.from_args(args, trace=want_trace).knobs(),
    )


def _cmd_stats(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from .obs import format_summary, regress

    if args.section and "serve" in args.section:
        return _cmd_stats_serve(args)
    if args.check:
        doc = json.loads(Path(args.check).read_text())
        if not isinstance(doc, dict):
            print(f"{args.check}: baseline must be a JSON object",
                  file=sys.stderr)
            return 2
        if doc.get("kind") == regress.BASELINE_KIND:
            baseline = regress.flatten(doc.get("metrics", {}))
            result = _instrumented_run(args, config=doc.get("config", {}))
            measured = regress.metrics_from_result(result)
            print(result.summary())
            print(format_summary(result.metrics))
        else:
            baseline = regress.flatten(doc)
            measured, skipped = regress.measure_bench_tuning(
                baseline, sections=args.section
            )
            for note in skipped:
                print(f"skipped: {note}")
        report = regress.compare(baseline, measured,
                                 tolerance=args.tolerance)
        print(report.format())
        return 0 if report.ok else 1

    # Always trace: the causal critical-path gauges (critpath ratio,
    # comm share, per-blame seconds) need spans, and the summary's
    # top-segment lines come straight from the analysis.
    result = _instrumented_run(args, want_trace=True)
    print(result.summary())
    print(format_summary(result.metrics))
    crit = result.critpath()
    print("  top critical-path segments")
    for seg in crit.top_segments(3):
        what = seg.kind or seg.blame
        task = f"  task {seg.task_id!r}" if seg.task_id is not None else ""
        print(f"    {seg.duration:.6g} s  {seg.blame:<10} {what:<10} "
              f"node {seg.node} worker {seg.worker}{task}")
    if args.write_baseline:
        regress.write_baseline(args.write_baseline,
                               regress.baseline_doc(result))
        print(f"baseline written to {args.write_baseline}")
    return 0


def _run_diff_side(args: argparse.Namespace, impl: str):
    problem, machine = _problem_machine(args)
    config = RunConfig.from_args(args, impl=impl, trace=True)
    return run(problem, machine, **config.knobs())


def _cmd_trace_diff(args: argparse.Namespace) -> int:
    from .obs.diff import diff_results

    result_a = _run_diff_side(args, args.impl_a)
    result_b = _run_diff_side(args, args.impl_b)
    diff = diff_results(result_a, result_b, label_a=args.impl_a, label_b=args.impl_b)
    print(result_a.summary())
    print(result_b.summary())
    print(diff.format(top=args.top))
    if args.flame_out_a or args.flame_out_b:
        from .obs.export import write_flamegraph

        if args.flame_out_a:
            write_flamegraph(args.flame_out_a, trace=result_a.trace,
                             critpath=diff.critpath_a)
            print(f"{args.impl_a} collapsed stacks written to "
                  f"{args.flame_out_a}")
        if args.flame_out_b:
            write_flamegraph(args.flame_out_b, trace=result_b.trace,
                             critpath=diff.critpath_b)
            print(f"{args.impl_b} collapsed stacks written to "
                  f"{args.flame_out_b}")
    if args.assert_comm_drop:
        drop = diff.comm_share_drop
        if drop > 0:
            print(f"OK: {args.impl_b} puts {drop:.1%} less communication "
                  f"on the critical path than {args.impl_a}")
        else:
            print(f"FAIL: {args.impl_b} does not lower the communication "
                  f"share of critical-path time ({-drop:+.1%} vs "
                  f"{args.impl_a})", file=sys.stderr)
            return 1
    return 0


def _cmd_experiment(args: argparse.Namespace) -> int:
    from .experiments import registry
    from .experiments.common import NACL, STAMPEDE2

    if args.id == "list":
        rows = [(e.id, e.paper_artifact, e.description) for e in registry.REGISTRY.values()]
        print(format_table(("id", "artifact", "description"), rows))
        return 0
    entry = registry.get(args.id)
    module = entry.module
    print(f"{entry.paper_artifact}: {entry.description}")
    if args.id == "table1":
        print(format_table(module.HEADERS, module.rows(), title="modelled (MB/s)"))
        print(format_table(module.HEADERS, module.paper_rows(), title="paper (MB/s)"))
    elif args.id == "fig5":
        print(format_table(module.HEADERS, module.rows()))
        from .analysis.asciiplot import plot

        sizes, na, s2 = module.curves()
        print()
        print(plot(sizes, {"NaCL": [100 * v for v in na],
                           "Stampede2": [100 * v for v in s2]},
                   logx=True, title="% of theoretical peak vs message size"))
    elif args.id == "roofline":
        print(format_table(module.HEADERS, module.rows()))
        print(f"paper brackets: {module.PAPER}")
    elif args.id == "fig6":
        for setup in (NACL, STAMPEDE2):
            print(format_table(module.HEADERS, module.rows(setup),
                               title=f"{setup.name} (paper: "
                                     f"{module.PAPER_OPTIMUM[setup.name]} optimal)"))
    elif args.id == "fig7":
        for setup in (NACL, STAMPEDE2):
            print(format_table(module.HEADERS, module.rows(setup),
                               title=f"{setup.name} speedups"))
    elif args.id == "fig8":
        for setup in (NACL, STAMPEDE2):
            print(format_table(module.HEADERS, module.rows(setup),
                               title=f"{setup.name}"))
    elif args.id == "fig9":
        print(format_table(module.HEADERS, module.rows(NACL), title="NaCL"))
    elif args.id == "fig10":
        exp = module.capture()
        print(format_table(module.HEADERS, module.rows(exp)))
        print(exp.gantt("base", critpath=True))
        print(exp.gantt("ca", critpath=True))
        print(module.causal_summary(exp))
    elif args.id == "headlines":
        h = module.compute()
        print(format_table(module.HEADERS, module.rows(h)))
    return 0


def _serve_knobs(args: argparse.Namespace, **overrides) -> dict:
    """Request keywords for a :class:`SolveRequest` from CLI flags."""
    config = RunConfig.from_args(args, **overrides)
    return {"machine": preset(args.machine, nodes=args.nodes),
            **config.knobs(SERVE)}


def _cmd_serve(args: argparse.Namespace) -> int:
    from .obs import RunMonitor, format_serve_summary
    from .serve.traffic import canned_session, format_tally

    problem, _ = _problem_machine(args)
    variants = max(1, (args.requests + 1) // 2)
    timeline_out = args.trace_out or args.otel_out
    service = dict(
        pool=args.pool,
        workers=args.workers,
        queue_depth=args.queue_depth,
        tenant_limit=args.tenant_limit,
        trace_requests=bool(timeline_out),
    )
    if args.no_cache:
        service["cache"] = False
    elif args.cache_dir:
        service["cache"] = args.cache_dir
    monitor = RunMonitor(interval=args.interval, stream=sys.stdout)
    with canned_session(problem, _serve_knobs(args), variants,
                        **service) as session:
        monitor.attach(session.service)
        try:
            tally = session.traffic(args.tenants, args.requests,
                                    deadline_s=args.deadline)
        finally:
            monitor.stop()
        snapshot = session.service.metrics.snapshot()
        if timeline_out:
            written = session.service.write_timeline(
                chrome=args.trace_out, otel=args.otel_out
            )
            for fmt, path in written.items():
                print(f"{fmt} timeline written to {path}")
    print(f"traffic: {args.tenants} tenants x {args.requests} requests "
          f"({variants} distinct problems, second wave repeats)")
    print(format_tally(tally))
    print(format_serve_summary(snapshot))
    pool = session.service.stats()["pool"]  # read after stop()
    print(f"pool at shutdown: kind={pool['kind']} spawned={pool['spawned']} "
          f"live={pool['workers']}")
    return 0 if tally["failed"] == 0 else 1


def _cmd_slo(args: argparse.Namespace) -> int:
    """``repro slo``: canned multi-tenant traffic through a temporary
    service, reported as per-tenant latency percentiles and
    error-budget burn; ``--fault`` additionally forces one terminal
    failure so the flight recorder dumps a postmortem."""
    from .obs.slo import format_slo_report, slo_report
    from .serve.traffic import canned_session, format_tally

    problem, _ = _problem_machine(args)
    dump = None
    with canned_session(problem, _serve_knobs(args), workers=args.workers,
                        dump_dir=args.dump_dir) as session:
        tally = session.traffic(args.tenants, args.requests)
        if args.fault:
            exc = session.force_fault(args.fault)
            if exc is not None:
                print(f"forced fault failed the request as intended: {exc!r}")
            dumps = session.service.stats().get("postmortems", [])
            dump = dumps[-1] if dumps else None
        snapshot = session.service.metrics.snapshot()
    print(f"traffic: {args.tenants} tenants x {args.requests} requests")
    print(format_tally(tally))
    print(format_slo_report(slo_report(snapshot, objective=args.objective)))
    if args.fault:
        if dump is None:
            print("forced fault produced no postmortem dump")
            return 1
        print(f"postmortem dump: {dump}")
    return 0 if tally["failed"] == 0 else 1


def _cmd_postmortem(args: argparse.Namespace) -> int:
    from .obs.lifecycle import format_postmortem, load_postmortem

    doc = load_postmortem(args.dump)
    print(format_postmortem(doc, width=args.width))
    return 0


def _cmd_submit(args: argparse.Namespace) -> int:
    from .obs import format_serve_summary
    from .serve import ServiceConfig, SolveRequest, SolverService

    problem, _ = _problem_machine(args)
    request = SolveRequest(
        problem=problem,
        tenant=args.tenant,
        priority=args.priority,
        deadline_s=args.deadline,
        **_serve_knobs(args),
    )
    if args.no_cache:
        cache: object = False
    else:
        cache = args.cache_dir  # None -> the persistent default dir
    config = ServiceConfig(pool="threads", workers=1, cache=cache)
    with SolverService(config) as service:
        outcome = service.submit(request).result(args.timeout)
        snapshot = service.metrics.snapshot()
    served_by = ("result cache" if outcome.cached
                 else "warm worker" if outcome.warm
                 else "cold worker")
    print(f"signature      {outcome.signature}")
    params = " ".join(f"{k}={v}" for k, v in sorted(outcome.params.items()))
    print(f"impl           {outcome.impl}  {params}")
    print(f"elapsed        {outcome.elapsed:.6f} s  ({outcome.gflops:.2f} "
          f"model gflop/s)")
    print(f"messages       {outcome.messages} "
          f"({outcome.message_bytes} payload bytes)")
    print(f"served by      {served_by}")
    tasks = snapshot.counter("tasks_executed_total")
    print(f"tasks executed {tasks:.0f}")
    print(format_serve_summary(snapshot))
    return 0


def _cmd_stats_serve(args: argparse.Namespace) -> int:
    """``repro stats --section serve``: a canned two-tenant workload
    through a temporary service, reported (and optionally gated)
    through the serving metrics."""
    import json
    from pathlib import Path

    from .obs import format_serve_summary, regress
    from .serve.traffic import canned_session, format_tally

    # The service takes concrete knobs and a real backend.
    knobs = _serve_knobs(
        args,
        tile=None if args.tile == "auto" else args.tile,
        steps=RunConfig.steps if args.steps == "auto" else args.steps,
        backend="threads" if args.backend == "sim" else args.backend,
    )
    problem, _ = _problem_machine(args)
    with canned_session(problem, knobs, variants=3, workers=2) as session:
        tally = session.traffic(tenants=2, per_tenant=6)
        snapshot = session.service.metrics.snapshot()
    print(format_tally(tally))
    print(format_serve_summary(snapshot))
    measured = regress.metrics_from_serve(snapshot)
    if args.write_baseline:
        doc = {"schema": 1, "kind": "serve-baseline", "metrics": measured}
        regress.write_baseline(args.write_baseline, doc)
        print(f"serve baseline written to {args.write_baseline}")
    if args.check:
        doc = json.loads(Path(args.check).read_text())
        baseline = regress.flatten(
            doc.get("metrics", doc) if isinstance(doc, dict) else {}
        )
        report = regress.compare(baseline, measured,
                                 tolerance=args.tolerance)
        print(report.format())
        return 0 if report.ok else 1
    return 0 if tally["failed"] == 0 else 1


def _cmd_chaos(args: argparse.Namespace) -> int:
    """The resilience round trip: a fault-free reference run, the same
    workload under the fault plan with checkpoint-restart recovery,
    then the two assertions the suite pins -- bit-identical grids and
    bounded makespan inflation."""
    import time as _time

    import numpy as np

    from .chaos import parse_plan, run_with_recovery

    plan = parse_plan(args.plan, seed=args.seed)
    problem, machine = _problem_machine(args)
    config = RunConfig.from_args(args, mode="execute")

    print(f"plan {plan.spec()}  (seed {args.seed}, "
          f"fingerprint {plan.fingerprint()})")
    t0 = _time.perf_counter()
    baseline = run(problem, machine, **config.knobs())
    baseline_wall = _time.perf_counter() - t0
    print(f"fault-free: {baseline.summary()}")

    chaos = run_with_recovery(
        problem, plan, machine, checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        max_restarts=args.max_restarts, **config.knobs(),
    )

    identical = bool(np.array_equal(chaos.grid, baseline.grid))
    inflation = (
        chaos.wall_elapsed / baseline_wall if baseline_wall > 0
        else float("inf")
    )

    for rec in chaos.faults:
        print(f"fault fired: {rec['spec']}")
    for restart in chaos.restarts:
        ckpt = restart["checkpoint"]
        print(f"recovered: node {restart['node']} lost, restarted on "
              f"{restart['nodes_after']} nodes from "
              + (f"checkpoint sweep {ckpt}" if ckpt else "scratch"))
    if chaos.recovered:
        last = chaos.restarts[-1]["checkpoint"] or 0
        print(f"final attempt replayed sweeps {last}..{problem.iterations} "
              f"({chaos.tasks_final_attempt} tasks; the checkpoint "
              f"skipped the first {last} of {problem.iterations} sweeps)")
    print(f"attempts: {chaos.attempts}")
    print(f"grids bit-identical: {identical}")
    print(f"makespan inflation: {inflation:.2f}x "
          f"(bound {args.inflation_bound:.2f}x)")
    ok = identical and inflation <= args.inflation_bound
    print("OK" if ok else "CHAOS CHECK FAILED")
    return 0 if ok else 1


#: Subcommand -> (flag registration, handler), in ``--help`` order.
COMMANDS = {
    "run": (_add_run_parser, _cmd_run),
    "tune": (_add_tune_parser, _cmd_tune),
    "stats": (_add_stats_parser, _cmd_stats),
    "trace-diff": (_add_trace_diff_parser, _cmd_trace_diff),
    "experiment": (_add_experiment_parser, _cmd_experiment),
    "serve": (_add_serve_parser, _cmd_serve),
    "submit": (_add_submit_parser, _cmd_submit),
    "slo": (_add_slo_parser, _cmd_slo),
    "postmortem": (_add_postmortem_parser, _cmd_postmortem),
    "chaos": (_add_chaos_parser, _cmd_chaos),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Communication-avoiding 2D stencils over a task-based "
                    "runtime (IPDPSW 2020 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for add_parser, _ in COMMANDS.values():
        add_parser(sub)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return COMMANDS[args.command][1](args)


if __name__ == "__main__":  # pragma: no cover - exercised via tests
    sys.exit(main())
