"""Serve workers: solve capacity that survives across jobs.

What survives between requests is the *worker*, never an executor (an
executor is built for one graph and runs once): a request is ``warm``
when the worker that ran it had already executed one.

Two kinds, one contract (``name``, ``alive()``, ``run(item)``,
``cancel(seq)``, ``close()``, ``retire_when_idle``):

* ``"threads"`` -- :class:`InProcessWorker`, an object in the service
  process; the solve runs on the runner thread that owns it, beside
  the other runners' (the C kernel lets go of the interpreter lock).
  Warm here means that the worker has run a request in this process
  before (lazy imports done, allocator arenas grown).  It holds
  nothing, so it is never retired.
* ``"processes"`` -- :class:`ProcessWorker`, a persistent forked child
  with a duplex pipe, in the style of Parsl's HTEX interchange loop:
  the parent ships one pickled request, the child solves it and ships
  back the reduced outcome plus a metrics snapshot the parent merges
  (counter exactness across the process boundary, same scheme the
  procs backend uses).  The child survives across requests, which is
  what a warm child saves: the fork, its imports and its allocator
  state.

Each of the service's runner threads owns one worker for its lifetime
-- spawns it on its first solve, replaces it when it died, closes an
idle child (:mod:`repro.serve.service`).  Worker-level warm/cold
counters go into the per-solve registry the executing worker owns
(single-writer discipline throughout).
"""

from __future__ import annotations

import itertools
import multiprocessing as mp
import threading
import time
from typing import Callable, Iterator

from ..obs.lifecycle import SpanLog, SpanRef
from .request import (
    DeadlineExpired,
    SolveRequest,
    WorkerDied,
    outcome_from_result,
)

#: What a worker runs: (job seq, request, absolute monotonic deadline
#: or None, lifecycle trace id or None).  Sequence numbers let the
#: reaper target the currently-running job; the trace id
#: (None runs untraced) carries the request's lifecycle context into
#: the worker, fork boundary included.
WorkItem = tuple[int, SolveRequest, float | None, str | None]


def execute_request(
    request: SolveRequest,
    metrics=None,
    on_executor: Callable | None = None,
    checkpoint_dir=None,
    lifecycle: SpanLog | None = None,
    trace_id: str | None = None,
    parent_span_id: SpanRef | None = None,
    want_trace: bool = False,
):
    """Run one request to a reduced
    :class:`~repro.serve.request.SolveOutcome`.

    Serving always runs ``mode="execute"`` (the request's config says
    so) -- the product is the solution grid.  The outcome reports
    ``warm=False``: warmth is a fact about the pool worker a request
    ran on, which :func:`_run_item` fills in.

    A request carrying a ``chaos_plan`` takes the resumable path
    instead: one attempt under the plan, restarting from the
    signature's latest checkpoint under ``checkpoint_dir`` if an
    earlier attempt died (the service's retry budget drives the
    re-submission; this function never loops).

    ``lifecycle``/``trace_id`` record request-scoped spans (a
    chaos request's ``recover`` children) under ``parent_span_id``;
    ``want_trace`` captures the
    execution-level trace on the outcome for the combined timeline.
    """
    from ..core.runner import run

    if request.chaos_plan is not None:
        from ..chaos.harness import execute_with_resume

        return execute_with_resume(
            request, metrics=metrics, on_executor=on_executor,
            checkpoint_dir=checkpoint_dir, lifecycle=lifecycle,
            trace_id=trace_id, parent_span_id=parent_span_id,
            want_trace=want_trace,
        )

    config = request.config.replace(trace=want_trace)
    result = run(
        request.problem, request.machine, metrics=metrics,
        on_executor=on_executor, **config.knobs(),
    )
    return outcome_from_result(
        result,
        signature=request.signature(),
        tenant=request.tenant,
        trace_id=trace_id,
        keep_trace=want_trace,
    )


def _run_item(item: WorkItem, name: str, served: Iterator[int],
              capture=None, checkpoint_dir=None, want_trace: bool = False):
    """Shared worker body: solve ``item`` on worker ``name``, honouring
    its deadline, into ``((status, payload), snapshot, spans)`` -- the
    solve's metrics snapshot and its lifecycle spans (an ``execute``
    span when traced, parenting any ``recover`` children the run
    recorded).

    ``served`` is the worker's own ``itertools.count()``: it yields how
    many requests the worker executed before this one, so a request is
    ``warm`` exactly when its worker had already run one -- whatever
    the backend, chaos requests included."""
    from ..obs.metrics import MetricRegistry
    from ..runtime.report import RunCancelled

    seq, request, deadline, trace_id = item
    reg = MetricRegistry()
    log = SpanLog(origin=name)
    if deadline is not None and time.monotonic() >= deadline:
        return (("expired", DeadlineExpired(
            f"job {seq} expired before execution started")),
            reg.snapshot(), log.spans)
    exec_id = log.allocate(trace_id, "execute") if trace_id is not None else None
    warm = next(served) > 0
    start_kind = "warm" if warm else "cold"
    reg.counter(
        f"serve_pool_{start_kind}_starts_total",
        f"requests executed on a {start_kind} pool worker", "starts",
    ).inc(slot=name)
    t0 = time.monotonic()
    error = None
    try:
        if capture is not None:
            capture.arm(seq)
        outcome = execute_request(
            request, metrics=reg,
            on_executor=capture.seen if capture is not None else None,
            checkpoint_dir=checkpoint_dir,
            lifecycle=log if trace_id is not None else None,
            trace_id=trace_id, parent_span_id=exec_id,
            want_trace=want_trace,
        )
        outcome.warm = warm
        result = ("ok", outcome)
    except RunCancelled:
        error = "cancelled at deadline"
        result = ("expired", DeadlineExpired(
            f"job {seq} cancelled at its deadline mid-run"))
    except Exception as exc:  # noqa: BLE001 - forwarded to the future
        error = repr(exc)
        result = ("error", exc)
    finally:
        if capture is not None:
            capture.disarm()
    if trace_id is not None:
        attrs = {"seq": seq, "worker": name, "warm": warm}
        if error is not None:
            attrs["error"] = error
        log.span(
            trace_id, "execute", t0, time.monotonic(),
            status="ok" if error is None else "error",
            tenant=request.tenant, span_id=exec_id, **attrs,
        )
    return result, reg.snapshot(), log.spans


class _CancelScope:
    """Tracks the executor of the currently-running item so the
    service reaper can cancel exactly that job."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._seq: int | None = None
        self._executor = None

    def arm(self, seq: int) -> None:
        with self._lock:
            self._seq = seq
            self._executor = None

    def seen(self, executor) -> None:
        with self._lock:
            self._executor = executor

    def disarm(self) -> None:
        with self._lock:
            self._seq = None
            self._executor = None

    def cancel(self, seq: int | None = None) -> bool:
        """Cancel the current run if it is (or ``seq`` is None) the
        targeted job.  Races benignly with run start: an executor
        that has not started yet answers ``False`` and the reaper
        retries on its next tick."""
        with self._lock:
            if seq is not None and seq != self._seq:
                return False
            ex = self._executor
        # The sim Engine has no cancel(); neither has "no executor yet".
        cancel = getattr(ex, "cancel", None)
        return cancel() if cancel is not None else False


class InProcessWorker:
    """Worker living in the service process (threads kind)."""

    #: nothing is held between requests, so idling costs nothing
    retire_when_idle = False

    def __init__(self, name: str, checkpoint_dir=None,
                 want_trace: bool = False) -> None:
        self.name = name
        self._served = itertools.count()
        self._scope = _CancelScope()
        self._checkpoint_dir = checkpoint_dir
        self._want_trace = want_trace

    def alive(self) -> bool:
        return True

    def run(self, item: WorkItem):
        return _run_item(item, self.name, self._served,
                         capture=self._scope,
                         checkpoint_dir=self._checkpoint_dir,
                         want_trace=self._want_trace)

    def cancel(self, seq: int | None = None) -> bool:
        return self._scope.cancel(seq)

    def close(self) -> None:
        """Nothing to release: executors live for one request."""


def _pool_child_main(conn, name: str, checkpoint_dir=None,
                     want_trace: bool = False) -> None:
    """Entry point of one persistent forked child: loop on the pipe,
    solve one request per message, ship the reduced outcome, the
    solve's metrics snapshot and its lifecycle spans back.  Span
    timestamps need no adjustment: ``time.monotonic`` is
    CLOCK_MONOTONIC, shared with the forking parent on Linux."""
    served = itertools.count()
    while True:
        try:
            msg = conn.recv()
        except (EOFError, OSError):
            return
        if msg[0] == "stop":
            conn.close()
            return
        seq, req, remaining, trace_id = msg[1]
        # A relative deadline -> this process's monotonic clock.
        deadline = None if remaining is None else time.monotonic() + remaining
        result = _run_item(
            (seq, req, deadline, trace_id), name, served,
            checkpoint_dir=checkpoint_dir, want_trace=want_trace,
        )
        try:
            conn.send(result)
        except (BrokenPipeError, OSError):
            return


class ProcessWorker:
    """Worker backed by a persistent forked child process."""

    #: an idle child still costs a process and its memory
    retire_when_idle = True

    def __init__(self, name: str, checkpoint_dir=None,
                 want_trace: bool = False) -> None:
        from ..exec.procs import trim_heap

        self.name = name
        ctx = mp.get_context("fork")
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._proc = ctx.Process(
            target=_pool_child_main,
            args=(child_conn, name, checkpoint_dir, want_trace),
            name=f"repro-serve-{name}",
            daemon=True,
        )
        trim_heap()
        self._proc.start()
        child_conn.close()
        self._pipe_broke = False

    def alive(self) -> bool:
        # A killed child's pipe reads EOF a moment before ``waitpid``
        # can reap it; the broken pipe alone already means dead.
        return not self._pipe_broke and self._proc.is_alive()

    def run(self, item: WorkItem):
        seq, req, deadline, trace_id = item
        remaining = None if deadline is None else max(0.0, deadline - time.monotonic())
        try:
            self._conn.send(("run", (seq, req, remaining, trace_id)))
            return self._conn.recv()
        except (EOFError, OSError, BrokenPipeError) as exc:
            self._pipe_broke = True
            raise WorkerDied(
                f"pool worker {self.name} died mid-solve: {exc!r}"
            ) from exc

    def cancel(self, seq: int | None = None) -> bool:
        """Deadline enforcement for a child is the blunt instrument:
        kill it (the solve fails, the owning runner forks its
        replacement)."""
        if not self._proc.is_alive():
            return False
        self._proc.terminate()
        return True

    def close(self) -> None:
        if self._proc.is_alive():
            try:
                self._conn.send(("stop",))
            except (BrokenPipeError, OSError):
                pass
            self._proc.join(timeout=0.5)
            if self._proc.is_alive():
                self._proc.terminate()
                self._proc.join(timeout=0.5)
        try:
            self._conn.close()
        except OSError:
            pass


#: ``ServiceConfig.pool`` -> the worker class a runner spawns
WORKER_KINDS = {"threads": InProcessWorker, "processes": ProcessWorker}


__all__ = [
    "InProcessWorker",
    "ProcessWorker",
    "WORKER_KINDS",
    "WorkItem",
    "execute_request",
]
