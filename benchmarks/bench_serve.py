"""The serving layer pays for itself: a warm service beats cold
per-request runs, and the result cache serves repeats for free.

Three measurements over a small-solve mix (the workload the service
exists for -- many modest solves, heavy repetition):

* **warm vs cold throughput** -- the same request stream through a
  persistent :class:`~repro.serve.SolverService` (warm workers,
  dedup, result cache) against one cold :func:`repro.core.runner.run`
  per request.  The acceptance bar is 3x; the ratio is mostly the
  result cache (the mix repeats 3 problems 8 times), so the label
  states the hit count next to it.  ``warm``/``cold`` count requests
  by whether their pool worker had executed one before.
* **cache hit executes nothing** -- a repeated identical request is
  served with *zero* task executions, proven by the
  ``tasks_executed_total`` counter, not by timing.
* **multi-tenant traffic** -- two tenants with different priorities
  through one service; records queue/dispatch/fairness statistics.

Outcomes append to ``BENCH_serve.json`` at the repo root so the
serving-performance trajectory accumulates across commits
(``repro stats --check BENCH_serve.json --section ...`` gates it).
"""

from __future__ import annotations

import gc
import json
import statistics
import time
from pathlib import Path

import numpy as np

from repro.core.runner import run
from repro.machine.machine import nacl
from repro.serve import (
    ServiceConfig,
    SolveRequest,
    SolverClient,
    SolverService,
)
from repro.stencil.problem import JacobiProblem

REPO_ROOT = Path(__file__).resolve().parent.parent
RECORD_PATH = REPO_ROOT / "BENCH_serve.json"

MACHINE = nacl(4)
SOLVE = dict(impl="base-parsec", tile=16, ratio=1.0)
N, ITERATIONS = 64, 6

#: The small-solve mix: 3 distinct problems, 24 requests (each problem
#: asked for 8 times -- the repetition a service workload actually has).
UNIQUE = 3
REQUESTS = 24


def _emit(key: str, record: dict) -> None:
    try:
        doc = json.loads(RECORD_PATH.read_text())
    except (OSError, ValueError):
        doc = {}
    record["unix_time"] = round(time.time(), 3)
    doc[key] = record
    RECORD_PATH.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


def _problems() -> list[JacobiProblem]:
    return [
        JacobiProblem(n=N, iterations=ITERATIONS + k) for k in range(UNIQUE)
    ]


def _request_stream() -> list[JacobiProblem]:
    problems = _problems()
    return [problems[i % UNIQUE] for i in range(REQUESTS)]


def _waves() -> list[list[JacobiProblem]]:
    """The stream arrives in waves of the unique mix: later waves are
    the repetition a real request stream exhibits."""
    stream = _request_stream()
    return [stream[i:i + UNIQUE] for i in range(0, REQUESTS, UNIQUE)]


def _cold_seconds() -> float:
    """One fully cold run() per request: graph build, pool spin-up and
    tear-down every time -- the per-request overhead the service
    amortises."""
    t0 = time.perf_counter()
    for wave in _waves():
        for problem in wave:
            run(problem, machine=MACHINE, mode="execute", backend="threads",
                jobs=2, **SOLVE)
    return time.perf_counter() - t0


def _warm_seconds(tmp_path: Path) -> tuple[float, dict]:
    config = ServiceConfig(workers=2, cache=tmp_path, tenant_limit=None)
    with SolverService(config) as service:
        client = SolverClient(service, tenant="bench")
        t0 = time.perf_counter()
        for wave in _waves():
            futures = [
                client.submit(problem, machine=MACHINE, backend="threads",
                              jobs=2, **SOLVE)
                for problem in wave
            ]
            for future in futures:
                future.result(timeout=300)
        elapsed = time.perf_counter() - t0
        snap = service.metrics.snapshot()
        counters = {
            "cache_hits": snap.counter("serve_cache_hits_total"),
            "warm_starts": snap.counter("serve_pool_warm_starts_total"),
            "cold_starts": snap.counter("serve_pool_cold_starts_total"),
            "batches": snap.counter("serve_batches_total"),
            "dedup": snap.counter("serve_dedup_total"),
        }
    return elapsed, counters


def test_warm_pool_throughput_vs_cold(tmp_path, show):
    cold_s = _cold_seconds()
    warm_s, counters = _warm_seconds(tmp_path)
    cold_rps = REQUESTS / cold_s
    warm_rps = REQUESTS / warm_s
    speedup = warm_rps / cold_rps
    show(
        f"small-solve mix: {REQUESTS} requests over {UNIQUE} problems "
        f"({N}^2 x ~{ITERATIONS} iterations)",
        f"  cold run() per request : {cold_s:.3f} s  ({cold_rps:6.1f} req/s)",
        f"  warm service           : {warm_s:.3f} s  ({warm_rps:6.1f} req/s)",
        f"  speedup                : {speedup:.1f}x with "
        f"{counters['cache_hits']:.0f} of {REQUESTS} requests served from "
        f"the result cache",
        f"  executed requests      : {counters['warm_starts']:.0f} on a warm "
        f"worker, {counters['cold_starts']:.0f} on a cold one "
        f"(dedup {counters['dedup']:.0f})",
    )
    assert speedup >= 3.0, (
        f"warm-pool throughput only {speedup:.2f}x cold; the acceptance "
        "bar is 3x on the small-solve mix"
    )
    _emit("throughput", {
        "requests": REQUESTS,
        "unique_problems": UNIQUE,
        "problem_n": N,
        "cold_seconds": round(cold_s, 4),
        "warm_seconds": round(warm_s, 4),
        "speedup": round(speedup, 2),
        **{k: round(v, 1) for k, v in counters.items()},
    })


def test_cache_hit_executes_zero_tasks(tmp_path, show):
    problem = _problems()[0]
    request = SolveRequest(problem=problem, machine=MACHINE,
                           backend="threads", jobs=2, **SOLVE)
    with SolverService(ServiceConfig(workers=1, cache=tmp_path)) as service:
        first = service.submit(request).result(timeout=300)
        before = service.metrics.snapshot().counter("tasks_executed_total")
        repeat = service.submit(request).result(timeout=300)
        after = service.metrics.snapshot().counter("tasks_executed_total")
    assert not first.cached and repeat.cached
    assert np.array_equal(first.grid, repeat.grid)
    assert after == before, "a cache hit must execute zero tasks"
    show(
        f"repeat request: cached={repeat.cached}, task counter "
        f"{before:.0f} -> {after:.0f} (zero executions on the hit)"
    )
    _emit("cache_hit", {
        "tasks_first": before,
        "tasks_delta_on_hit": after - before,
        "hit_rate": 0.5,
    })


#: The lifecycle-overhead gate compares two services on a stream the
#: size of the wall-clock benchmark's ``serve_mix`` workload: 256^2
#: solves (8 sweeps, 32-cell tiles, one worker thread per solve), every
#: request executed (no result cache), ``OVERHEAD_REQUESTS`` per side --
#: 3% of a side is dozens of requests' worth of time, not one scheduling
#: hiccup.  Sized for ~20 s a side with the compiled kernel (~7 ms a
#: request on a 2-core host; 400 requests took 2.9 s).
OVERHEAD_SOLVE = dict(impl="base-parsec", tile=32, backend="threads", jobs=1)
OVERHEAD_N, OVERHEAD_ITERATIONS = 256, 8
OVERHEAD_REQUESTS = 2800
#: Both sides serve ``OVERHEAD_REQUESTS / OVERHEAD_ROUNDS`` requests per
#: round and the order flips every round (ABBA), so a drift in this
#: host's speed -- it slows by half after ~2 s of load and recovers when
#: idle -- lands on both sides alike.  Measured resolution: the total
#: over 20 such rounds repeats within about +-3 points, over 40 within
#: about +-1.5, with single rounds anywhere in [-19%, +47%].  A round's
#: requests are submitted at once, so they must fit the service's
#: default queue depth (64): 40 a round.
OVERHEAD_ROUNDS = 70
OVERHEAD_BUDGET = 0.03


def _serve_seconds(requests: int, **config) -> float:
    """Wall time of ``requests`` executed solves through a cache-less
    two-runner service built from ``config``."""
    problems = [JacobiProblem(n=OVERHEAD_N, iterations=OVERHEAD_ITERATIONS,
                              init=0.5 + k * 2.0**-20) for k in range(requests)]
    gc.collect()
    with SolverService(ServiceConfig(workers=2, cache=False, tenant_limit=None,
                                     **config)) as service:
        client = SolverClient(service, tenant="bench")
        t0 = time.perf_counter()
        futures = [client.submit(problem, machine=MACHINE, **OVERHEAD_SOLVE)
                   for problem in problems]
        for future in futures:
            future.result(timeout=600)
        return time.perf_counter() - t0


def _overhead(base: dict, extra: dict) -> tuple[float, float, list[float]]:
    """Seconds the ``base`` and the ``extra`` service took for
    ``OVERHEAD_REQUESTS`` requests each, in alternating order, and the
    quartiles of the per-round overheads (%) behind the totals."""
    per_round = OVERHEAD_REQUESTS // OVERHEAD_ROUNDS
    totals, rounds = {"base": 0.0, "extra": 0.0}, []
    for k in range(OVERHEAD_ROUNDS):
        order = ("base", "extra") if k % 2 == 0 else ("extra", "base")
        took = {side: _serve_seconds(per_round, **(base if side == "base" else extra))
                for side in order}
        for side in order:
            totals[side] += took[side]
        rounds.append(100 * (took["extra"] / took["base"] - 1.0))
    quartiles = [round(q, 2) for q in statistics.quantiles(rounds, n=4)]
    return totals["base"], totals["extra"], quartiles


def test_lifecycle_tracing_overhead(show):
    """The always-on lifecycle tracer (spans + SLO histograms + flight
    recorder) must cost <3% against the same service with tracing
    detached -- the budget that justifies leaving it on."""
    detached_s, traced_s, rounds = _overhead(
        dict(lifecycle=False), dict(lifecycle=True))
    overhead = traced_s / detached_s - 1.0
    show(
        f"lifecycle tracing overhead ({OVERHEAD_REQUESTS} executed "
        f"{OVERHEAD_N}^2 requests per side, {OVERHEAD_ROUNDS} alternating rounds):",
        f"  detached : {detached_s:.3f} s",
        f"  traced   : {traced_s:.3f} s",
        f"  overhead : {100 * overhead:+.2f}%  (budget +3%; round quartiles {rounds})",
    )
    _emit("lifecycle_overhead", {
        "requests": OVERHEAD_REQUESTS,
        "problem_n": OVERHEAD_N,
        "detached_seconds": round(detached_s, 4),
        "traced_seconds": round(traced_s, 4),
        "overhead_pct": round(100 * overhead, 2),
        "round_overhead_pct_quartiles": rounds,
    })
    assert overhead <= OVERHEAD_BUDGET, (
        f"lifecycle tracing costs {100 * overhead:.1f}% "
        f"({detached_s:.3f}s -> {traced_s:.3f}s); the budget is 3%"
    )


def test_multitenant_traffic(tmp_path, show):
    """Two tenants, interleaved submission, one service: records the
    fairness and dispatch statistics of a mixed stream."""
    problems = _problems()
    config = ServiceConfig(workers=2, cache=tmp_path, tenant_limit=2)
    with SolverService(config) as service:
        alice = SolverClient(service, tenant="alice", priority=1)
        bob = SolverClient(service, tenant="bob")
        futures = []
        for i in range(REQUESTS):
            client = alice if i % 2 == 0 else bob
            futures.append(client.submit(
                problems[i % UNIQUE], machine=MACHINE, backend="threads",
                jobs=2, **SOLVE,
            ))
        outcomes = [f.result(timeout=300) for f in futures]
        snap = service.metrics.snapshot()
    assert len(outcomes) == REQUESTS
    inflight = snap.labelled("serve_tenant_inflight")
    peaks = {
        dict(ls)["tenant"]: state["max"] for ls, state in inflight.items()
    }
    dispatches = snap.counter("serve_batches_total")
    dedup = snap.counter("serve_dedup_total")
    show(
        f"two-tenant stream: {REQUESTS} requests, per-tenant in-flight "
        f"peaks {peaks} (cap 2), "
        f"{dispatches:.0f} solves dispatched, {dedup:.0f} deduplicated",
    )
    assert all(peak <= 2 for peak in peaks.values())
    _emit("multitenant", {
        "requests": REQUESTS,
        "tenant_peaks": {k: round(v, 1) for k, v in sorted(peaks.items())},
        "batches": round(dispatches, 1),
        "dedup": round(dedup, 1),
        "cache_hits": round(snap.counter("serve_cache_hits_total"), 1),
    })
