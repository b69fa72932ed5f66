"""One run of one workload of the wall-clock benchmark.

    python benchmarks/wallclock/run.py --workload kernel_large --seed 1
    python benchmarks/wallclock/run.py --workload serve_mix --seed 1 --trace 1
    python benchmarks/wallclock/run.py --list

Prints every metric by name with unit, direction and bound, then -- as
the last line of standard output -- one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the metrics ``BENCHMARK.json``
lists as end-to-end from a timed run (``--trace 0``), the ones it lists
as per-layer from a traced one (``--trace 1``).  Exits non-zero when a
solve failed or returned a wrong grid, when the measured pipe messages
differ from the graph's census, when the cache-hit share is not 0.25,
or when the run left a process, thread, temp directory or postmortem
dump behind.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

import registry  # noqa: E402


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=registry.WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=registry.RUN_SECONDS,
                   help="seconds of timed work")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0,
                   help="1: the traced run that yields the per-layer metrics")
    p.add_argument("--scale", choices=("full", "toy"), default="full",
                   help="toy: the smoke test's sizes")
    p.add_argument("--json", type=Path, metavar="PATH",
                   help="also write the full result document here")
    p.add_argument("--out", type=Path, default=HERE / "out", metavar="DIR",
                   help="where a traced run writes trace_<workload>.json")
    p.add_argument("--list", action="store_true", help="print the registry and exit")
    args = p.parse_args(argv)
    if not (args.list or args.workload):
        p.error("--workload is required")
    return args


def measure(args, rundir) -> dict:
    """Dispatch to the workload (the heavy imports happen here, inside
    ``setup_s``)."""
    import batch_workloads
    import serve_workload

    if args.workload == "serve_mix":
        cfg = serve_workload.CONFIGS[args.scale]
        if args.trace:
            result = serve_workload.measure_traced(cfg, args.seed, args.seconds, rundir)
        else:
            result = serve_workload.measure_timed(cfg, args.seed, args.seconds, rundir)
    else:
        cfg = batch_workloads.CONFIGS[args.workload, args.scale]
        if args.trace:
            result = batch_workloads.measure_traced(cfg, args.seed)
        else:
            result = batch_workloads.measure_timed(cfg, args.seed, args.seconds)
    result["config"] = {k: getattr(cfg, k) for k in cfg.__dataclass_fields__}
    return result


def finish_metrics(result: dict, peak_rss_mb: float) -> tuple[dict, dict]:
    """(end-to-end, per-layer) metrics: add the ones every workload
    shares and keep exactly the names the registry lists.  A timed run
    has no per-layer metrics; a layer off a traced workload's path
    reports 0."""
    e2e = dict(result["end_to_end"])
    e2e["setup_s"] = result["t_first_rep"] - T_START
    e2e["peak_rss_mb"] = peak_rss_mb
    e2e["failed_frac"] = result["failed"] / max(1, result["attempted"])
    layers = result.get("per_layer")
    if layers is not None:
        layers = {name: layers.get(name, 0.0) for name in registry.PER_LAYER_NAMES}
    bad = [n for n in registry.END_TO_END_NAMES if not math.isfinite(e2e.get(n, math.nan))]
    bad += [n for n, v in (layers or {}).items() if not math.isfinite(v)]
    if bad:
        result.setdefault("problems", []).append(f"metrics missing or not finite: {bad}")
    e2e = {n: float(e2e[n]) for n in registry.END_TO_END_NAMES if n in e2e and n not in bad}
    return e2e, {n: float(v) for n, v in (layers or {}).items() if n not in bad}


def describe(metrics: dict) -> dict:
    """Each value with its unit, direction and bound, for the document."""
    return {n: {"value": v, "unit": registry.BY_NAME[n].unit, "better": registry.BY_NAME[n].better,
                "bound": registry.BY_NAME[n].bound} for n, v in metrics.items()}


def print_table(metrics: dict) -> None:
    for name, value in metrics.items():
        spec = registry.BY_NAME[name]
        bound = f"bound {spec.bound:.2f}" if spec.bound is not None else ""
        bound += "" if spec.gated else " (not gated by the driver)"
        print(f"{name:<32} {value:>16.6g} {spec.unit:<7} {spec.better:<6} {bound}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.list:
        print(registry.listing())
        return 0

    if not (HERE.parents[1] / "src" / "repro").is_dir():
        print("nothing to measure: the program under src/repro is not here", file=sys.stderr)
        return 2

    import harness

    rundir = harness.RunDir()
    host = harness.host_facts()
    try:
        result = measure(args, rundir)
    finally:
        leftovers = harness.hygiene_failures(rundir)
    e2e, layers = finish_metrics(result, harness.peak_rss_mb())
    everything = {**e2e, **layers}
    driver_names = registry.TRACED_NAMES if args.trace else registry.GATED_NAMES
    problems = result.get("problems", []) + leftovers
    if result["failed"]:
        problems.append(f"{result['failed']} of {result['attempted']} solves failed")
    correct = not problems
    diagnostics = result.get("diagnostics") or {
        k: layers[k] for k in ("bench.rep_iqr_frac", "bench.steal_frac", "bench.timed_s")}
    noisy = host["loadavg_1m"] > 1.0 or diagnostics["bench.rep_iqr_frac"] > 0.25

    print(f"workload {args.workload}  seed {args.seed}  "
          f"{'traced' if args.trace else 'timed'}  scale {args.scale}")
    print_table(everything)
    print(f"timed window {diagnostics['bench.timed_s']:.2f} s, "
          f"{result['attempted']} solves attempted, {result['failed']} failed, "
          f"rep spread {diagnostics['bench.rep_iqr_frac']:.3f}, "
          f"steal {diagnostics['bench.steal_frac']:.4f}, noisy_host {noisy}")
    for problem in problems:
        print(f"PROBLEM: {problem}")

    spans = result.get("spans")
    if spans is not None:
        trace_path = args.out / f"trace_{args.workload}.json"
        spans.write(trace_path, workload=args.workload, seed=args.seed)
        print(f"spans written to {trace_path}")
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "mode": "traced" if args.trace else "timed", "scale": args.scale,
            "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
            "noisy_host": noisy, "problems": problems, "host": host,
            "config": result["config"], "diagnostics": diagnostics,
            "end_to_end": describe(e2e), "per_layer": describe(layers),
            "samples": result["samples"],
        }, indent=1))

    print(json.dumps({
        "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {n: {"value": everything[n], "unit": registry.BY_NAME[n].unit}
                    for n in driver_names if n in everything},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
