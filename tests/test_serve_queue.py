"""Admission control and multi-tenant fair share (``repro.serve.queue``).

The three serving-policy properties the ISSUE gates on live here:
over-limit tenants never exceed their concurrency cap, queue-full
submissions reject fast with a typed error, and deadline-expired jobs
are failed without ever dispatching.
"""

from __future__ import annotations

import time
from collections import Counter
from concurrent.futures import Future

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs import MetricRegistry
from repro.serve import (
    DeadlineExpired,
    Job,
    JobQueue,
    QueueFullError,
    ServiceClosed,
    SolveRequest,
)
from repro.stencil.problem import JacobiProblem

PROBLEM = JacobiProblem(n=8, iterations=2)


def make_job(
    queue: JobQueue,
    tenant: str = "t",
    priority: int = 0,
    deadline: float | None = None,
    signature: str | None = None,
    chaos_plan: str | None = None,
) -> Job:
    request = SolveRequest(problem=PROBLEM, tenant=tenant, priority=priority,
                           chaos_plan=chaos_plan)
    seq = queue.next_seq()
    return Job(
        request=request,
        future=Future(),
        signature=signature or f"sig-{seq}",
        seq=seq,
        enqueued=time.monotonic(),
        deadline=deadline,
    )


# -- ordering ------------------------------------------------------------


def test_priority_order_fifo_among_equals():
    q = JobQueue(max_depth=16, tenant_limit=None)
    low = make_job(q, priority=0)
    high = make_job(q, priority=5)
    mid_a = make_job(q, priority=1)
    mid_b = make_job(q, priority=1)
    for job in (low, high, mid_a, mid_b):
        q.submit(job)
    order = [q.take(timeout=0) for _ in range(4)]
    assert order == [high, mid_a, mid_b, low]


def test_fair_share_interleaves_tenants():
    q = JobQueue(max_depth=16, tenant_limit=None)
    a1, a2 = make_job(q, "a"), make_job(q, "a")
    b1, b2 = make_job(q, "b"), make_job(q, "b")
    for job in (a1, a2, b1, b2):
        q.submit(job)
    order = [q.take(timeout=0) for _ in range(4)]
    # a flooded first, but b is served every other slot
    assert order == [a1, b1, a2, b2]


# -- admission control ---------------------------------------------------


def test_queue_full_rejects_fast_with_typed_error():
    reg = MetricRegistry()
    q = JobQueue(max_depth=4, tenant_limit=None, metrics=reg)
    for _ in range(4):
        q.submit(make_job(q))
    t0 = time.monotonic()
    with pytest.raises(QueueFullError, match="queue full"):
        q.submit(make_job(q))
    assert time.monotonic() - t0 < 0.1  # fast-reject, no blocking
    snap = reg.snapshot()
    assert snap.counter("serve_admission_rejects_total") == 1
    labelled = snap.labelled("serve_admission_rejects_total")
    assert {dict(ls)["reason"] for ls in labelled} == {"queue-full"}
    # the queue itself is intact: admitted jobs still dispatch
    assert q.take(timeout=0) is not None


@given(
    tenants=st.lists(st.sampled_from("abc"), min_size=1, max_size=32),
    cap=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_inflight_never_exceeds_cap(tenants, cap):
    """Property (i): whatever the submission mix and drain schedule,
    no tenant ever has more than ``cap`` jobs in flight."""
    q = JobQueue(max_depth=1024, tenant_limit=cap)
    for tenant in tenants:
        q.submit(make_job(q, tenant))
    inflight: list[Job] = []
    dispatched = 0
    while True:
        job = q.take(timeout=0)
        if job is not None:
            inflight.append(job)
            dispatched += 1
            counts = Counter(j.tenant for j in inflight)
            assert all(n <= cap for n in counts.values()), counts
            continue
        if not inflight:
            break
        done = inflight.pop(0)  # complete the oldest, freeing a slot
        q.task_done(done.tenant)
    assert dispatched == len(tenants)  # caps delay, they never drop


def test_tenant_at_cap_queues_rather_than_rejects():
    q = JobQueue(max_depth=16, tenant_limit=1)
    first, second = make_job(q, "a"), make_job(q, "a")
    q.submit(first)
    q.submit(second)  # admitted, not rejected
    assert q.take(timeout=0) is first
    assert q.take(timeout=0.02) is None  # "a" is at its cap
    q.task_done("a")
    assert q.take(timeout=0) is second


def test_per_tenant_cap_override():
    q = JobQueue(max_depth=16, tenant_limit=1, tenant_limits={"vip": 2})
    assert q.cap("anyone") == 1
    assert q.cap("vip") == 2
    v1, v2 = make_job(q, "vip"), make_job(q, "vip")
    q.submit(v1), q.submit(v2)
    assert q.take(timeout=0) is v1
    assert q.take(timeout=0) is v2  # cap 2 lets both fly


@pytest.mark.parametrize("caps", [
    {"tenant_limit": 0},
    {"tenant_limit": -1},
    {"tenant_limit": 1, "tenant_limits": {"vip": 0}},
])
def test_cap_below_one_is_rejected(caps):
    """A cap of 0 would admit a tenant's jobs and never dispatch them."""
    with pytest.raises(ValueError, match="tenant_limit"):
        JobQueue(max_depth=16, **caps)


def test_service_rejects_a_zero_tenant_limit():
    from repro.serve import ServiceConfig, SolverService

    with pytest.raises(ValueError, match="tenant_limit"):
        SolverService(ServiceConfig(tenant_limit=0, cache=False))


# -- deadlines -----------------------------------------------------------


def test_purge_expired_fails_queued_jobs():
    reg = MetricRegistry()
    q = JobQueue(max_depth=16, metrics=reg)
    dead = make_job(q, deadline=time.monotonic() - 0.01)
    live = make_job(q)
    q.submit(dead), q.submit(live)
    assert q.purge_expired() == 1
    with pytest.raises(DeadlineExpired):
        dead.future.result(timeout=0)
    assert q.take(timeout=0) is live
    labelled = reg.snapshot().labelled("serve_deadline_expired_total")
    assert {dict(ls)["where"] for ls in labelled} == {"queued"}


def test_take_purges_opportunistically():
    q = JobQueue(max_depth=16)
    dead = make_job(q, deadline=time.monotonic() - 0.01)
    live = make_job(q)
    q.submit(dead), q.submit(live)
    assert q.take(timeout=0) is live  # never dispatches the corpse
    assert dead.future.done()


# -- duplicates of a leader ---------------------------------------------


def test_take_duplicates_stays_within_tenant_and_cap():
    q = JobQueue(max_depth=16, tenant_limit=3)
    a = [make_job(q, "a", priority=p, signature="s") for p in (5, 0, 1, 2)]
    b = make_job(q, "b", signature="s")
    for job in (*a, b):
        q.submit(job)
    leader = q.take(timeout=0)
    assert leader is a[0]
    # priority order while the cap has room; never tenant b's twin
    assert q.take_duplicates(leader) == [a[3], a[2]]
    assert q.inflight("a") == 3  # the cap counts every member
    assert q.take(timeout=0) is b
    assert q.take(timeout=0) is None  # a[1] waits for a's cap


def test_take_duplicates_takes_equal_signature_and_chaos_plan_only():
    q = JobQueue(max_depth=16, tenant_limit=None)
    leader, twin = make_job(q, signature="s"), make_job(q, signature="s")
    other = make_job(q, signature="other")
    chaos = make_job(q, signature="s", chaos_plan="kill:node=1,step=1")
    for job in (leader, other, chaos, twin):
        q.submit(job)
    assert q.take(timeout=0) is leader
    assert q.take_duplicates(leader) == [twin]
    assert q.take(timeout=0) is other and q.take_duplicates(other) == []
    assert q.take(timeout=0) is chaos and q.take_duplicates(chaos) == []


def test_take_duplicates_skips_expired_jobs():
    q = JobQueue(max_depth=16, tenant_limit=None)
    leader = make_job(q, signature="s")
    q.submit(leader)
    assert q.take(timeout=0) is leader
    dead = make_job(q, signature="s", deadline=time.monotonic() - 0.01)
    live = make_job(q, signature="s")
    q.submit(dead), q.submit(live)
    assert q.take_duplicates(leader) == [live]
    assert not dead.future.done() and q.depth == 1  # left for the purge
    assert q.purge_expired() == 1
    with pytest.raises(DeadlineExpired):
        dead.future.result(timeout=0)


# -- lifecycle -----------------------------------------------------------


def test_close_fails_queued_and_rejects_later_submits():
    q = JobQueue(max_depth=16)
    jobs = [make_job(q) for _ in range(2)]
    for job in jobs:
        q.submit(job)
    assert q.close() == 2
    for job in jobs:
        with pytest.raises(ServiceClosed):
            job.future.result(timeout=0)
    with pytest.raises(ServiceClosed):
        q.submit(make_job(q))
    assert q.take(timeout=0) is None
    assert q.depth == 0


def test_job_completion_is_idempotent():
    q = JobQueue(max_depth=4)
    job = make_job(q)
    job.fail(DeadlineExpired("first"))
    job.complete(object())  # late result after a failure: swallowed
    job.fail(DeadlineExpired("second"))
    with pytest.raises(DeadlineExpired, match="first"):
        job.future.result(timeout=0)
