"""The ``serve_mix`` workload: a warm :class:`SolverService`, two
closed-loop clients, three executed requests per cache hit.

The stream is dealt in blocks of eight requests -- six unique problems
(executed, then written to the cache) and two repeats of a four-problem
hot set solved during set-up (cache reads) -- and a run stops at the
first block boundary after ``--seconds``, so the hit share is exactly
0.25 whatever the service's speed.  Closed loop, because callers wait
for their grid; two clients, because the host has two cores.
"""

from __future__ import annotations

import gc
import hashlib
import random
import shutil
import threading
import time
from dataclasses import dataclass

import numpy as np

from repro.distgrid.boundary import DirichletBC
from repro.runtime.trace import median  # 0 for no values
from repro.serve import ServiceConfig, SolverClient, SolverService
from repro.stencil.problem import JacobiProblem

import batch_workloads as batch
from harness import (RunDir, Spans, cpu_ticks, gc_quiet, iqr_frac, percentile, steal_frac,
                     stopwatch)

BLOCK = 8
HITS_PER_BLOCK = 2
HOT_SET = 4
CLIENTS = 2
#: Reference solves timed during set-up (more are timed at the end).
SETUP_REFERENCE_REPS = 15
#: Index ranges that keep warm-up and solo problems apart from the stream's.
WARMUP_BASE, SOLO_BASE = 10**6, 2 * 10**6


@dataclass(frozen=True)
class ServeConfig:
    n: int
    iterations: int
    tile: int
    #: requests the 1-worker service executes for ``serve.solo_exec_ms``
    solo_requests: int
    #: blocks a run deals at least, however short ``--seconds`` is
    min_blocks: int = 2

    @property
    def updates(self) -> int:
        return self.n * self.n * self.iterations

    def knobs(self) -> dict:
        return dict(impl="base-parsec", backend="threads", jobs=1, tile=self.tile)

    def staged(self) -> batch.BatchConfig:
        """One request as the staged pipeline sees it (a request's
        default machine is ``nacl(4)``)."""
        return batch.BatchConfig(self.n, self.n, self.iterations, "base-parsec", "threads",
                                 jobs=1, tile=self.tile, nodes=4)


CONFIGS = {"full": ServeConfig(256, 8, 32, solo_requests=30),
           "toy": ServeConfig(64, 4, 16, solo_requests=4)}


class Stream:
    """The seeded request stream: which problem request ``i`` asks for.

    Problems differ in their constant initial value only, so every one
    costs the same; the seed picks the values and the order.
    """

    def __init__(self, cfg: ServeConfig, seed: int) -> None:
        rng = random.Random(seed)
        self.cfg, self.seed = cfg, seed
        self.base = rng.uniform(0.25, 0.75)
        self.bc = DirichletBC(rng.uniform(1.0, 2.0))

    def _problem(self, offset: int) -> JacobiProblem:
        return JacobiProblem(n=self.cfg.n, iterations=self.cfg.iterations,
                             init=self.base + offset * 2.0**-24, bc=self.bc)

    def unique(self, k: int) -> JacobiProblem:
        return self._problem(k + 1)

    def hot(self, h: int) -> JacobiProblem:
        return self._problem(-(h + 1))

    def request(self, i: int) -> tuple[JacobiProblem, bool]:
        """(problem, is a hot-set repeat) of stream position ``i``."""
        block, pos = divmod(i, BLOCK)
        rng = random.Random(self.seed * 1_000_003 + block)
        hits = rng.sample(range(BLOCK), HITS_PER_BLOCK)
        hot_ids = [rng.randrange(HOT_SET) for _ in hits]
        if pos in hits:
            return self.hot(hot_ids[hits.index(pos)]), True
        uniques_before = pos - sum(h < pos for h in hits)
        return self.unique(block * (BLOCK - HITS_PER_BLOCK) + uniques_before), False


def digest(grid: np.ndarray) -> bytes:
    """Bitwise fingerprint of a grid: equal digests stand in for
    ``np.array_equal`` so a run need not keep every returned grid (that
    would be most of its peak RSS)."""
    return hashlib.blake2b(np.ascontiguousarray(grid).data, digest_size=16).digest()


class Session:
    """A started service with its clients, hot set solved and pool warm."""

    def __init__(self, cfg: ServeConfig, seed: int, rundir: RunDir, workers: int = 2) -> None:
        self.cfg, self.stream = cfg, Stream(cfg, seed)
        self.dir = rundir.sub(f"serve-{time.monotonic_ns()}")
        self.service = SolverService(ServiceConfig(
            workers=workers, jobs=1, cache=self.dir / "cache", tenant_limit=None,
            dump_dir=self.dir / "dumps", checkpoint_dir=self.dir / "checkpoints",
        )).start()
        self.clients = [SolverClient(self.service, tenant=f"client-{k}")
                        for k in range(CLIENTS)]
        self.reference_s: list[float] = []
        try:
            self._prepare(workers)
        except BaseException:
            self.close()
            raise

    def _prepare(self, workers: int) -> None:
        knobs, stream = self.cfg.knobs(), self.stream
        for h in range(HOT_SET):
            grid = self.clients[0].solve(stream.hot(h), timeout=120, **knobs).grid
            if not np.array_equal(grid, stream.hot(h).reference_solution()):
                raise RuntimeError("hot-set solve differs from the reference")
        with gc_quiet():
            for _ in range(SETUP_REFERENCE_REPS):
                self.reference_s.append(stopwatch(stream.unique(0).reference_solution)[0])
        # Warm every pool slot: `workers` solves in flight at once, twice.
        for round_ in range(2):
            futures = [self.clients[k % CLIENTS].submit(
                stream.unique(WARMUP_BASE + round_ * workers + k), **knobs)
                for k in range(workers)]
            for fut in futures:
                fut.result(timeout=120)

    def close(self) -> None:
        self.service.stop()
        shutil.rmtree(self.dir, ignore_errors=True)


class Dealer:
    """Hands stream positions to the clients; stops at the first block
    boundary after the deadline."""

    def __init__(self, seconds: float, min_blocks: int) -> None:
        self._lock = threading.Lock()
        self._next = 0
        self._deadline = time.perf_counter() + seconds
        self._min = min_blocks * BLOCK

    def take(self) -> int | None:
        with self._lock:
            i = self._next
            if i % BLOCK == 0 and i >= self._min and time.perf_counter() >= self._deadline:
                return None
            self._next += 1
            return i


def client_loop(session: Session, client: SolverClient, dealer: Dealer, records: list,
                split_submit) -> None:
    """One closed-loop client: next request only after the last grid is
    back.  ``split_submit(i)`` says whether to time ``submit()`` apart
    from the wait (the traced half of a traced run)."""
    knobs = session.cfg.knobs()
    while (i := dealer.take()) is not None:
        problem, hot = session.stream.request(i)
        rec = {"i": i, "hot": hot, "ok": False, "split": split_submit(i)}
        t0 = time.perf_counter()
        try:
            if rec["split"]:
                future = client.submit(problem, **knobs)
                rec["admit_s"] = time.perf_counter() - t0
                outcome = future.result(timeout=120)
            else:
                outcome = client.solve(problem, timeout=120, **knobs)
        except Exception as exc:  # noqa: BLE001 - a failed request is a counted result
            rec["error"] = repr(exc)
            records.append(rec)
            continue
        rec.update(start=t0, end=time.perf_counter())
        rec.update(latency=rec["end"] - t0, cached=outcome.cached, exec_s=outcome.elapsed,
                   queue_wait_s=outcome.queue_wait_s, warm=outcome.warm,
                   trace_id=outcome.trace_id, digest=digest(outcome.grid), ok=True)
        records.append(rec)


def run_window(session: Session, seconds: float, split_submit=lambda i: False):
    """Drive the closed loop for ``seconds``; returns the per-request
    records, the window's wall seconds and its steal share.  The
    collector stays on -- a service lives with it -- but starts clean."""
    records: list[dict] = []
    dealer = Dealer(seconds, session.cfg.min_blocks)
    threads = [threading.Thread(target=client_loop, name=f"bench-client-{k}",
                                args=(session, client, dealer, records, split_submit))
               for k, client in enumerate(session.clients)]
    gc.collect()
    ticks, t0 = cpu_ticks(), time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    window = time.perf_counter() - t0
    return sorted(records, key=lambda r: r["i"]), window, steal_frac(ticks, cpu_ticks())


def verify(session: Session, records: list[dict]) -> int:
    """Check every returned grid against the reference, after the window;
    the reference solves double as the end-of-run reference timing.
    Returns the number of failed requests."""
    truth: dict[float, bytes] = {}
    failed = 0
    with gc_quiet():
        for rec in records:
            if not rec["ok"]:
                failed += 1
                continue
            problem, _ = session.stream.request(rec["i"])
            if problem.init not in truth:
                dt, grid = stopwatch(problem.reference_solution)
                session.reference_s.append(dt)
                truth[problem.init] = digest(grid)
            if rec["digest"] != truth[problem.init]:
                rec["ok"] = False
                failed += 1
    return failed


def end_to_end(cfg: ServeConfig, session: Session, records, window) -> dict:
    """The three measured end-to-end metrics.  Medians here, unlike the
    batch workloads: a request's latency is shaped by the other request
    in flight, not by the host alone, so the fastest one is a rare
    uncontended request rather than the typical undisturbed one."""
    done = [r for r in records if r["ok"]]
    executed = [r["latency"] for r in done if not r["cached"]]
    if not executed:
        return {}
    return {
        "solve_s": median(executed),
        "mlups": cfg.updates * len(done) / window / 1e6,
        # a plain loop calling the reference once per request, over the same stream
        "speedup_vs_reference": median(session.reference_s) * len(done) / window,
    }


def hit_frac_problems(records) -> list[str]:
    """The stream is built for a hit share of exactly 0.25, each hit a
    hot-set repeat; anything else means the cache misbehaved."""
    hits = sum(1 for r in records if r.get("cached"))
    problems = []
    if hits * BLOCK != HITS_PER_BLOCK * len(records):
        problems.append(f"serve.hit_frac {hits}/{len(records)} != {HITS_PER_BLOCK / BLOCK}")
    wrong = [r["i"] for r in records if r["ok"] and r["cached"] != r["hot"]]
    if wrong:
        problems.append(f"requests {wrong} hit the cache when unique, or missed it when repeated")
    return problems


def measure_timed(cfg: ServeConfig, seed: int, seconds: float, rundir: RunDir) -> dict:
    session = Session(cfg, seed, rundir)
    try:
        t_first_rep = time.perf_counter()
        records, window, steal = run_window(session, seconds)
        failed = verify(session, records)
    finally:
        session.close()
    executed = [r["latency"] for r in records if r["ok"] and not r["cached"]]
    return {
        "end_to_end": end_to_end(cfg, session, records, window),
        "attempted": len(records),
        "failed": failed,
        "t_first_rep": t_first_rep,
        "samples": {"reference_s": session.reference_s, "solve_s": executed,
                    "hit_s": [r["latency"] for r in records if r["ok"] and r["cached"]]},
        "diagnostics": {"bench.rep_iqr_frac": iqr_frac(executed),
                        "bench.steal_frac": steal, "bench.timed_s": window},
        "problems": hit_frac_problems(records),
    }


# -- traced run ----------------------------------------------------------


def add_request_spans(spans: Spans, service: SolverService, rec: dict) -> None:
    """One client-side span per request (``serve.client_request``), with
    the service's own lifecycle spans (its ``request`` envelope over
    admit, cache_probe, queued, batch_fuse, dispatch, execute, respond)
    beneath it.  The service stamps them with
    ``time.monotonic``, which is ``perf_counter``'s clock on Linux; a
    span the service closed a moment after the client woke is clipped
    to its parent."""
    root = spans.add("serve.client_request", rec["start"], rec["end"], None, rec["i"])
    ids: dict[str | None, int] = {None: root}
    pending = service.lifecycle.spans_of(rec["trace_id"]) if rec["trace_id"] else []
    while pending:
        ready = [sp for sp in pending if sp.parent_span_id in ids]
        if not ready:  # parent not retained: hang the rest off the client span
            ready = pending
        for sp in ready:
            parent = ids.get(sp.parent_span_id, root)
            lo, hi = spans.spans[parent]["start"], spans.spans[parent]["end"]
            start = min(max(sp.start, lo), hi)
            ids[sp.span_id] = spans.add(f"serve.{sp.name}", start, min(max(sp.end, start), hi),
                                        parent, rec["i"])
        pending = [sp for sp in pending if sp.span_id not in ids]


def median_ms(seconds) -> float:
    return median(seconds) * 1e3


def solo_exec_s(cfg: ServeConfig, seed: int, rundir: RunDir) -> list[float]:
    """``SolveOutcome.elapsed`` of the same requests with nothing else
    in flight: a 1-worker service and one client."""
    session = Session(cfg, seed, rundir, workers=1)
    try:
        knobs = cfg.knobs()
        return [session.clients[0].solve(session.stream.unique(SOLO_BASE + k), timeout=120,
                                         **knobs).elapsed
                for k in range(cfg.solo_requests)]
    finally:
        session.close()


def measure_traced(cfg: ServeConfig, seed: int, seconds: float, rundir: RunDir) -> dict:
    """Half of ``seconds`` in the closed loop -- odd blocks with
    ``submit()`` timed apart and their lifecycle spans collected, even
    blocks exactly as the timed run -- then the solo service, the staged
    pipeline on one request and the direct calls."""
    spans = Spans()
    session = Session(cfg, seed, rundir)
    try:
        t_first_rep = time.perf_counter()
        before = session.service.metrics.snapshot()
        records, window, steal = run_window(session, seconds / 2,
                                            split_submit=lambda i: (i // BLOCK) % 2 == 1)
        batches = session.service.metrics.snapshot().counter("serve_batches_total") \
            - before.counter("serve_batches_total")
        failed = verify(session, records)
        e2e = end_to_end(cfg, session, records, window)
        for rec in records:
            if rec["ok"] and rec["split"]:
                add_request_spans(spans, session.service, rec)
    finally:
        session.close()
    done = [r for r in records if r["ok"]]
    executed = [r for r in done if not r["cached"]]
    solo = solo_exec_s(cfg, seed, rundir)
    m = {
        "serve.admit_us": median_ms([r["admit_s"] for r in done if r["split"]]) * 1e3,
        "serve.queue_wait_ms": median_ms([r["queue_wait_s"] for r in executed]),
        "serve.exec_ms": median_ms([r["exec_s"] for r in executed]),
        "serve.overhead_ms": median_ms([r["latency"] - r["queue_wait_s"] - r["exec_s"]
                                 for r in executed]),
        "serve.hit_ms": median_ms([r["latency"] for r in done if r["cached"]]),
        "serve.hit_frac": sum(1 for r in done if r["cached"]) / len(done) if done else 0.0,
        "serve.warm_frac": (sum(1 for r in executed if r["warm"]) / len(executed)
                            if executed else 0.0),
        "serve.batches": batches,
        "serve.p95_ms": percentile([r["latency"] for r in done], 0.95) * 1e3 if done else 0.0,
        "serve.solo_exec_ms": median_ms(solo),
    }
    m["serve.concurrency_penalty"] = (m["serve.exec_ms"] / m["serve.solo_exec_ms"]
                                      if m["serve.solo_exec_ms"] else 0.0)
    split = [r["latency"] for r in executed if r["split"]]
    plain = [r["latency"] for r in executed if not r["split"]]
    m["bench.trace_overhead_frac"] = (median(split) / median(plain) - 1.0
                                      if split and plain else 0.0)
    m["bench.rep_iqr_frac"] = iqr_frac([r["latency"] for r in executed])
    m["bench.steal_frac"] = steal
    m["bench.timed_s"] = window
    m["bench.unattributed_frac"] = spans.unattributed_frac("serve.client_request")

    # The layers beneath the service, on one request with nothing else running.
    staged_cfg = cfg.staged()
    problem = session.stream.unique(0)
    truth = problem.reference_solution()
    stages = []
    for rep in range(batch.TRACED_REPS):
        stage = batch.staged_solve(staged_cfg, problem, spans, solve_id=-(rep + 1))
        failed += not np.array_equal(stage.pop("grid"), truth)
        stages.append(stage)
    m.update(batch.layer_metrics(staged_cfg, stages, spans))
    m.update(batch.direct_call_metrics(staged_cfg, problem))
    m.update(batch.stencil_metrics(m, stages[-1]["graph"], session.reference_s))
    return {
        "end_to_end": e2e,
        "per_layer": m,
        "attempted": len(records) + batch.TRACED_REPS,
        "failed": failed,
        "t_first_rep": t_first_rep,
        "samples": {"solve_s": [r["latency"] for r in executed], "solo_exec_s": solo,
                    "reference_s": session.reference_s},
        "spans": spans,
        "problems": hit_frac_problems(records),
    }
