"""One request's path through the solver service, hop by hop (wall-clock).

    PYTHONPATH=src python benchmarks/serve_path.py [requests-per-client]

Drives a `serve_mix`-shaped stream (the wall-clock benchmark's fourth
workload: 256^2 grids, tile 32, 8 sweeps, `base-parsec` on one thread,
two closed-loop clients on a two-runner service, three executed
requests per cache hit) and prints where an *executed* request's
latency went, from the service's own lifecycle spans:

    submit (signature, cache probe, enqueue) -> queued -> dispatch ->
    baton wait -> execute (template bind, run, assemble) -> respond ->
    the client's wake-up; then, off the request's path, the cache write

The hops between spans are read off the spans' edges, so the rows down
to the client's wake-up add up to the client-side latency; `baton wait`
is the worker's `queued` span (0 for a request that found the baton
free), `cache write` is timed around `ResultCache.put` and happens
after the future resolved, and the three stages inside `execute` are
timed by running `run()`'s sequence on the same request shape with
nothing else in flight (they are what `execute` is made of, not extra
rows; the first build of a shape is timed from an empty template memo).
Every figure is the median over the executed requests with its quartiles.

The stream never fills the result cache, so two standalone lines follow:
`ResultCache.put`, and a cold instance's disk hit (a fresh `ResultCache`
on the same directory, its first `get`), each timed on a store already
holding `max_entries` entries of random-double 256^2 grids.  A
map of where the time goes -- `docs/serving.md` carries the table --
not a benchmark: `benchmarks/wallclock/run.py --workload serve_mix` is.
"""

from __future__ import annotations

import hashlib
import sys
import tempfile
import threading
import time
from statistics import median, quantiles

import numpy as np

from repro.core.base_parsec import build_base_graph
from repro.core.dataflow import TEMPLATES
from repro.exec.executor import ThreadedExecutor
from repro.machine.machine import nacl
from repro.serve import ResultCache, ServiceConfig, SolverClient, SolverService
from repro.serve.request import SolveOutcome
from repro.stencil.problem import JacobiProblem

N, TILE, SWEEPS, CLIENTS = 256, 32, 8, 2
KNOBS = dict(impl="base-parsec", backend="threads", jobs=1, tile=TILE)
HOT = 4  # every fourth request repeats one of these (a cache hit)


def problem(k: int) -> JacobiProblem:
    return JacobiProblem(n=N, iterations=SWEEPS, init=0.5 + k * 2.0**-24)


def client_loop(client: SolverClient, base: int, count: int, records: list) -> None:
    for k in range(count):
        hit = k % 4 == 3
        prob = problem(-(1 + k % HOT)) if hit else problem(base + k)
        t0 = time.monotonic()
        future = client.submit(prob, **KNOBS)
        t_submitted = time.monotonic()
        outcome = future.result(timeout=120)
        records.append((t0, t_submitted, time.monotonic(), outcome))


def hops_of(service: SolverService, record, put_s: dict) -> dict[str, float]:
    t0, t_submitted, t_done, outcome = record
    spans = {(s.name, s.attrs.get("where")): s
             for s in service.lifecycle.spans_of(outcome.trace_id)}
    probe, queued = spans["cache_probe", None], spans["queued", None]
    dispatch = spans["dispatch", None]
    execute, request = spans["execute", None], spans["request", None]
    baton = spans.get(("queued", "baton"))
    baton_s = baton.duration if baton is not None else 0.0
    return {
        "submit: signature": probe.start - t0,
        "submit: cache probe (miss)": probe.duration,
        "submit: enqueue + admit span": t_submitted - probe.end,
        "queued": queued.duration,
        "dispatch (duplicates, worker lookup, spans)": dispatch.end - queued.end,
        "hand-off to the worker": execute.start - dispatch.end - baton_s,
        "baton wait (the other runner's solve)": baton_s,
        "execute": execute.duration,
        "respond (adopt spans, remember, resolve, SLO fold)":
            request.end - execute.end,
        "client wake-up": t_done - request.end,
        "= client-side latency": t_done - t0,
        "cache write (after the future resolved)": put_s.get(outcome.signature, 0.0),
    }


def staged() -> dict[str, float]:
    """`run()`'s stages on one request shape, nothing else in flight:
    the graph `threads` executes for the modelled nacl(4), one node
    block for the grid."""
    out: dict[str, list[float]] = {"of which template bind": [], "of which run": [],
                                   "of which assemble": [],
                                   "first of a shape: template build": []}
    for k in range(15):
        TEMPLATES.clear()
        t0 = time.monotonic()
        build_base_graph(problem(10**6 + k), nacl(1), tile=TILE)
        out["first of a shape: template build"].append(time.monotonic() - t0)
    for k in range(15):
        t0 = time.monotonic()
        built = build_base_graph(problem(10**6 + k), nacl(1), tile=TILE)
        t1 = time.monotonic()
        report = ThreadedExecutor(built.graph, jobs=1, policy="priority").run()
        t2 = time.monotonic()
        built.assemble_grid(report.results)
        out["of which template bind"].append(t1 - t0)
        out["of which run"].append(t2 - t1)
        out["of which assemble"].append(time.monotonic() - t2)
    return {name: median(values) for name, values in out.items()}


def full_store(reps: int = 25) -> dict[str, list[float]]:
    """`put` into, and a cold instance's disk hit from, a result cache
    holding `max_entries` random-double N^2 grids."""
    rng = np.random.default_rng(0)

    def outcome(k: int) -> SolveOutcome:
        signature = hashlib.sha256(str(k).encode()).hexdigest()
        return SolveOutcome(signature=signature, impl="base-parsec", elapsed=0.01,
                            gflops=1.0, messages=0, message_bytes=0,
                            params={"tile": TILE}, grid=rng.random((N, N)))

    times: dict[str, list[float]] = {"put": [], "cold disk hit": []}
    with tempfile.TemporaryDirectory(prefix="repro-serve-store-") as tmp:
        cache = ResultCache(tmp)
        for k in range(cache.max_entries):
            filler = outcome(k)
            cache.put(filler.signature, filler)
        for k in range(reps):
            timed = outcome(cache.max_entries + k)
            t0 = time.monotonic()
            cache.put(timed.signature, timed)
            times["put"].append(time.monotonic() - t0)
            cold = ResultCache(tmp)
            t0 = time.monotonic()
            hit = cold.get(timed.signature)
            times["cold disk hit"].append(time.monotonic() - t0)
            assert hit is not None and np.array_equal(hit.grid, timed.grid)
    return times


def main(per_client: int) -> None:
    records: list = []
    put_s: dict[str, float] = {}
    with tempfile.TemporaryDirectory(prefix="repro-serve-path-") as tmp:
        config = ServiceConfig(workers=CLIENTS, cache=f"{tmp}/cache", tenant_limit=None,
                               dump_dir=f"{tmp}/dumps", checkpoint_dir=f"{tmp}/checkpoints")
        with SolverService(config) as service:
            cache_put = service.cache.put

            def timed_put(signature, outcome):
                t0 = time.monotonic()
                cache_put(signature, outcome)
                put_s[signature] = time.monotonic() - t0

            service.cache.put = timed_put
            clients = [SolverClient(service, tenant=f"client-{c}") for c in range(CLIENTS)]
            for h in range(HOT):  # the hot set, which also warms both workers
                clients[h % CLIENTS].solve(problem(-(1 + h)), timeout=120, **KNOBS)
            threads = [threading.Thread(target=client_loop,
                                        args=(client, 10**4 * (c + 1), per_client, records))
                       for c, client in enumerate(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            executed = [hops_of(service, r, put_s) for r in records if not r[3].cached]
            hit_ms = [1e3 * (r[2] - r[0]) for r in records if r[3].cached]
            dispatches = service.metrics.snapshot().counter("serve_batches_total")
    stages = staged()
    print(f"serve_mix-shaped stream: {len(records)} requests, {len(executed)} executed, "
          f"{len(hit_ms)} cache hits (median {median(hit_ms):.2f} ms), "
          f"{dispatches:.0f} dispatches incl. {HOT} set-up solves")
    print(f"{'hop':<50} {'median ms':>10}  [p25, p75]")
    for name in executed[0]:
        values = [1e3 * h[name] for h in executed]
        q1, _, q3 = quantiles(values, n=4)
        print(f"{name:<50} {median(values):>10.3f}  [{q1:.3f}, {q3:.3f}]")
        if name == "execute":
            for stage, seconds in stages.items():
                print(f"{'    ' + stage + ' (solo)':<50} {1e3 * seconds:>10.3f}")
    for name, seconds in full_store().items():
        values = [1e3 * s for s in seconds]
        q1, _, q3 = quantiles(values, n=4)
        print(f"{'full store: ' + name + ' (solo)':<50} {median(values):>10.3f}  "
              f"[{q1:.3f}, {q3:.3f}]")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 120)
