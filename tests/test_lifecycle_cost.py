"""What the always-on lifecycle tracer costs a request, counted rather
than timed: the timed gate (``benchmarks/bench_serve.py``
``test_lifecycle_tracing_overhead``) needs thousands of requests to
resolve 3 %, so this keeps its budget honest between runs of it.

A served request makes one sha256 digest -- its trace id, which its
outcome carries -- and none per span: a span id stays a
:class:`~repro.obs.lifecycle.SpanRef` until an export or a dump reads
it.  The flight recorder's ring holds the span objects the traces
hold, never a per-span dict.
"""

from __future__ import annotations

import pytest

import repro.obs.export as export
from repro.obs.lifecycle import LifeSpan, request_trace_id
from repro.serve import ServiceConfig, SolverService

from .serve_helpers import _no_serve_leftovers, _request, random_problem

pytestmark = pytest.mark.timeout(300)

REQUESTS = 6


def test_a_served_request_costs_one_digest_and_its_spans_none(monkeypatch):
    digests: list[str] = []
    real = export._span_id

    def counted(payload: str, nbytes: int) -> str:
        digests.append(payload)
        return real(payload, nbytes)

    problems = [random_problem(24, 3, seed=40 + k) for k in range(REQUESTS)]
    with SolverService(ServiceConfig(workers=2, cache=False)) as service:
        monkeypatch.setattr(export, "_span_id", counted)
        outcomes = [
            service.submit(_request(p, impl="base-parsec", jobs=1))
            .result(timeout=120) for p in problems
        ]
        monkeypatch.setattr(export, "_span_id", real)
        spans = service.lifecycle.all_spans()
        ring = list(service.recorder._ring)
    assert not _no_serve_leftovers()
    assert all(not o.cached for o in outcomes)
    # every executed request recorded its spans ...
    assert len(spans) >= 6 * REQUESTS
    assert {sp.name for sp in spans} >= {
        "admit", "queued", "dispatch", "execute", "respond", "request"}
    # ... for one digest each: the trace id its outcome carries
    assert len(digests) <= REQUESTS
    assert [o.trace_id for o in outcomes] == [
        request_trace_id(o.signature, seq) for seq, o in enumerate(outcomes, 1)]
    # the ring holds the traces' own span objects, no per-span dict
    assert ring and all(isinstance(e, LifeSpan) for e in ring)
    held = {id(sp) for sp in spans}
    assert all(id(e) in held for e in ring)
    # and reading an id afterwards makes it, once
    before = len(digests)
    monkeypatch.setattr(export, "_span_id", counted)
    first = [sp.span_id for sp in spans]
    assert [sp.span_id for sp in spans] == first
    assert len(digests) - before == len(set(first))


def test_a_full_tracer_retains_records_not_documents():
    """512 retained traces and a full 4,096-entry ring: 1.16 MiB of
    Python objects on CPython 3.11, where dict-backed spans with eager
    hex ids and a ring of per-span dicts retained 3.93 MiB."""
    import gc
    import tracemalloc

    from repro.obs.lifecycle import FlightRecorder, LifecycleTracer, SpanLog
    from repro.obs.metrics import MetricRegistry

    tracemalloc.start()
    try:
        tracer = LifecycleTracer(metrics=MetricRegistry(),
                                 recorder=FlightRecorder())
        for seq in range(6000):
            tid = tracer.begin("ab" * 32, seq, tenant="t")
            t = float(seq)
            tracer.span(tid, "cache_probe", t, t + 0.1, hit=False)
            tracer.span(tid, "admit", t, t + 0.2, seq=seq, deadline_s=None)
            tracer.span(tid, "queued", t + 0.2, t + 0.3, seq=seq, attempt=0)
            tracer.span(tid, "dispatch", t + 0.3, t + 0.4, worker="w",
                        seq=seq, leader=seq)
            log = SpanLog("pool-threads-0")
            log.span(tid, "execute", t + 0.4, t + 0.9, tenant="t",
                     span_id=log.allocate(tid, "execute"), seq=seq,
                     worker="w", warm=True)
            tracer.adopt(log.spans)
            tracer.finish(tid, "ok", now=t + 1.0)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(tracer) == 512 and len(tracer.recorder) == 4096
    assert retained < 1.5 * 2**20, f"{retained / 2**20:.2f} MiB retained"
