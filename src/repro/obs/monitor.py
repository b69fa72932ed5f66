"""Live run monitoring and post-run metric summaries.

A :class:`RunMonitor` samples a live backend's ``progress()`` dict on
a background thread and renders one status line per sample -- tasks
done/total, occupancy so far, and (when the static census is known)
measured messages against the graph's predicted message count.  All
three backends expose ``progress()``:

* :class:`repro.runtime.engine.Engine` -- virtual-clock done/total
  plus delivered messages;
* :class:`repro.exec.executor.ThreadedExecutor` -- wall-clock
  done/total and busy seconds;
* :class:`repro.exec.procs.ProcessExecutor` -- done/total and
  messages sent, read from the nodes' shared header, plus liveness.

The monitor attaches through :func:`repro.core.runner.run`'s
``on_executor`` hook, which fires just before the run starts::

    mon = RunMonitor(interval=0.5)
    result = run(problem, ..., on_executor=mon.attach)
    mon.stop()

``repro serve --interval`` drives one over a live service;
``repro stats`` prints :func:`format_summary` (see :mod:`repro.cli`).
"""

from __future__ import annotations

import threading
from typing import Any, TextIO

from .metrics import MetricsSnapshot

__all__ = [
    "RunMonitor",
    "format_sample",
    "format_serve_summary",
    "format_summary",
]


def format_sample(p: dict[str, Any], census_messages: int | None = None) -> str:
    """One status line from one ``progress()`` dict.

    Handles every backend's shape; unknown keys are ignored so the
    monitor keeps working as backends grow richer progress reports.
    """
    parts: list[str] = []
    elapsed = p.get("elapsed_s")
    if elapsed is not None:
        parts.append(f"t={elapsed:8.3f}s")
    done, total = p.get("done"), p.get("total")
    if done is not None and total:
        parts.append(f"tasks {done}/{total} ({100.0 * done / total:5.1f}%)")
    busy, workers = p.get("busy_s"), p.get("workers")
    if busy is not None and workers and elapsed:
        occ = busy / (elapsed * workers)
        parts.append(f"occupancy {occ:.2f}")
    msgs = p.get("messages")
    if msgs is not None:
        if census_messages:
            parts.append(f"msgs {msgs}/{census_messages} (census)")
        else:
            parts.append(f"msgs {msgs}")
    if "procs_alive" in p:
        parts.append(f"procs {p['procs_alive']}/{p.get('procs', '?')} alive")
    if "queue_depth" in p:
        parts.append(f"queue {p['queue_depth']}")
    return "  ".join(parts) if parts else "(no progress data)"


class RunMonitor:
    """Poll a live backend's ``progress()`` periodically.

    ``attach(executor)`` is shaped to be passed directly as the
    runner's ``on_executor`` callback: it remembers the target and
    starts the sampling thread.  ``stop()`` halts sampling and takes
    one final sample so short runs still record something.  Samples
    accumulate in :attr:`samples`; when ``stream`` is given each is
    also rendered there as it is taken.
    """

    def __init__(
        self,
        interval: float = 0.5,
        stream: TextIO | None = None,
        census_messages: int | None = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive, got {interval}")
        self.interval = interval
        self.stream = stream
        self.census_messages = census_messages
        self.samples: list[dict[str, Any]] = []
        self._target: Any = None
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def attach(self, executor: Any) -> None:
        """Start monitoring ``executor`` (anything with ``progress()``)."""
        self._target = executor
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-monitor", daemon=True
        )
        self._thread.start()

    def sample(self) -> dict[str, Any] | None:
        """Take one sample now; returns it (or ``None`` if unavailable)."""
        target = self._target
        if target is None:
            return None
        try:
            p = target.progress()
        except Exception:
            return None  # the run may be tearing down under us
        self.samples.append(p)
        if self.stream is not None:
            print(format_sample(p, self.census_messages),
                  file=self.stream, flush=True)
        return p

    def _loop(self) -> None:
        while not self._stop.wait(self.interval):
            self.sample()

    def stop(self) -> None:
        """Stop the sampler thread and take a final sample."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.sample()

    def __enter__(self) -> "RunMonitor":
        return self

    def __exit__(self, *exc: object) -> None:
        self.stop()


def format_summary(
    snapshot: MetricsSnapshot,
    census_messages: int | None = None,
    census_bytes: int | None = None,
) -> str:
    """Human-readable post-run summary of a metrics snapshot.

    Shows the headline counters every backend publishes; the census
    comparison defaults to the ``census_*`` gauges the runner records
    in the same snapshot.
    """
    if census_messages is None:
        census_messages = int(snapshot.gauge("census_messages")) or None
    if census_bytes is None:
        census_bytes = int(snapshot.gauge("census_message_bytes")) or None
    lines: list[str] = []

    def row(label: str, value: str) -> None:
        lines.append(f"  {label:<28} {value}")

    elapsed = snapshot.gauge("run_elapsed_seconds")
    tasks = snapshot.counter("tasks_executed_total")
    total = snapshot.gauge("tasks_total")
    lines.append("run summary")
    row("elapsed", f"{elapsed:.6f} s")
    row("tasks executed", f"{tasks:.0f} of {total:.0f}")
    for ls, count in sorted(snapshot.labelled("tasks_executed_total").items()):
        label = dict(ls).get("kind", "?")
        row(f"  kind={label}", f"{count:.0f}")
    busy = snapshot.counter("worker_busy_seconds_total")
    workers = snapshot.gauge("workers_per_node")
    nodes = max(
        1, len({dict(ls).get("node") for ls in
                snapshot.labelled("worker_busy_seconds_total")} - {None}),
    )
    if busy and elapsed and workers:
        row("worker busy", f"{busy:.6f} s")
        row("occupancy", f"{busy / (elapsed * workers * nodes):.3f}")
    msgs = snapshot.counter("messages_total")
    if msgs or census_messages:
        against = f" (census {census_messages})" if census_messages else ""
        row("remote messages", f"{msgs:.0f}{against}")
        mbytes = snapshot.counter("message_bytes_total")
        against = f" (census {census_bytes})" if census_bytes else ""
        row("remote payload bytes", f"{mbytes:.0f}{against}")
    wire = snapshot.counter("wire_bytes_total")
    if wire:
        row("wire bytes (ring)", f"{wire:.0f}")
    hits = snapshot.counter("tuning_cache_hits_total")
    misses = snapshot.counter("tuning_cache_misses_total")
    if hits or misses:
        rate = hits / (hits + misses)
        row("tuning cache hit-rate", f"{rate:.2f} ({hits:.0f}/{hits + misses:.0f})")
    trials = snapshot.counter("tuning_trials_total")
    if trials:
        row("tuning trials", f"{trials:.0f}")
    serve = format_serve_summary(snapshot)
    if serve:
        lines.append(serve)
    crit = snapshot.gauge("critpath_seconds")
    if crit:
        row("critical path", f"{crit:.6f} s")
        row("critpath ratio", f"{snapshot.gauge('critpath_ratio'):.3f}"
            " (dependency bound / makespan)")
        row("critpath comm share",
            f"{snapshot.gauge('critpath_comm_share'):.1%}")
        blames = snapshot.labelled("critpath_blame_seconds")
        for ls, state in sorted(
            blames.items(), key=lambda kv: -kv[1]["value"]
        ):
            row(f"  blame={dict(ls).get('blame', '?')}",
                f"{state['value']:.6f} s")
    return "\n".join(lines)


def format_serve_summary(snapshot: MetricsSnapshot) -> str:
    """The serving section of a metrics summary (empty string when the
    snapshot carries no ``serve_*`` metrics -- i.e. the run was a
    plain solve, not a service)."""
    submitted = snapshot.counter("serve_jobs_submitted_total")
    hits = snapshot.counter("serve_cache_hits_total")
    misses = snapshot.counter("serve_cache_misses_total")
    if not (submitted or hits or misses):
        return ""
    lines: list[str] = ["serve summary"]

    def row(label: str, value: str) -> None:
        lines.append(f"  {label:<28} {value}")

    row("jobs submitted", f"{submitted:.0f}")
    for ls, count in sorted(
        snapshot.labelled("serve_jobs_completed_total").items()
    ):
        row(f"  status={dict(ls).get('status', '?')}", f"{count:.0f}")
    retried = snapshot.counter("serve_jobs_retried_total")
    if retried:
        row("jobs retried", f"{retried:.0f}")
    recoveries = snapshot.counter("chaos_recoveries_total")
    faults = sum(
        snapshot.labelled("chaos_faults_injected_total").values()
    )
    if faults or recoveries:
        row("chaos faults / recoveries", f"{faults:.0f} / {recoveries:.0f}")
    if hits or misses:
        rate = hits / (hits + misses)
        row("result cache hit-rate",
            f"{rate:.2f} ({hits:.0f}/{hits + misses:.0f})")
    warm = snapshot.counter("serve_pool_warm_starts_total")
    cold = snapshot.counter("serve_pool_cold_starts_total")
    if warm or cold:
        row("worker starts", f"{warm:.0f} warm / {cold:.0f} cold")
    replaced = snapshot.counter("serve_pool_replaced_total")
    retired = snapshot.counter("serve_pool_retired_total")
    if replaced or retired:
        row("pool churn",
            f"{replaced:.0f} replaced / {retired:.0f} retired")
    batches = snapshot.counter("serve_batches_total")
    if batches:
        row("solves dispatched", f"{batches:.0f}")
        dedup = snapshot.counter("serve_dedup_total")
        if dedup:
            row("deduplicated jobs", f"{dedup:.0f}")
    rejects = snapshot.counter("serve_admission_rejects_total")
    if rejects:
        row("admission rejects", f"{rejects:.0f}")
    expired = snapshot.counter("serve_deadline_expired_total")
    if expired:
        row("deadline expiries", f"{expired:.0f}")
    depth = snapshot.labelled("serve_queue_depth").get((), None)
    if depth is not None:
        row("queue depth (peak)", f"{depth['max']:.0f}")
    inflight = snapshot.labelled("serve_tenant_inflight")
    for ls, state in sorted(inflight.items()):
        row(f"  tenant={dict(ls).get('tenant', '?')} in-flight peak",
            f"{state['max']:.0f}")
    e2e = snapshot.labelled("slo_e2e_seconds")
    if e2e:
        from .metrics import quantile_from_state
        row("e2e latency p95 (by tenant)", "")
        for ls, state in sorted(e2e.items()):
            p95 = quantile_from_state(state, 0.95)
            row(f"  tenant={dict(ls).get('tenant', '?')}",
                "-" if p95 is None else f"{p95:.6f} s"
                f" ({state['count']} requests)")
    return "\n".join(lines)
