"""Unified telemetry: metrics registry, exporters, monitor, gate.

PaRSEC's profiling system is the instrument the paper's validation
rests on (Fig. 10's traces, worker occupancy, median kernel times).
This package is our software-counter equivalent, shared by every
execution layer:

* :mod:`repro.obs.metrics` -- counters / gauges / histograms in one
  process-mergeable registry, and ``publish_run``, the one fold of a
  finished report into it that every backend calls;
* :mod:`repro.obs.export` -- one serializer for every trace sink:
  Chrome/Perfetto events, OTel-style spans, collapsed-stack flamegraphs;
* :mod:`repro.obs.monitor` -- live progress of a running backend and
  post-run summaries (``repro serve``'s live lines, ``repro stats``);
* :mod:`repro.obs.regress` -- the perf-regression gate comparing a
  fresh run against recorded BENCH baselines with tolerances;
* :mod:`repro.obs.lifecycle` -- request-scoped lifecycle spans, the
  flight recorder and the combined service/execution timeline export;
* :mod:`repro.obs.slo` -- per-tenant latency percentiles and
  error-budget burn (the ``repro slo`` report).
"""

from __future__ import annotations

import os

from .._lazy import lazy_exports

#: Re-exported name -> sub-module that defines it, resolved on first
#: access: the engine and both executors import this package only for
#: :func:`trace_validation_enabled`.
_EXPORTS = {
    **dict.fromkeys(("CritPathReport", "critical_path", "find_stragglers",
                     "publish_critpath_metrics"), "critpath"),
    **dict.fromkeys(("TraceDiff", "diff_results", "diff_traces"), "diff"),
    **dict.fromkeys(("FlightRecorder", "LifecycleTracer", "LifeSpan",
                     "format_postmortem", "load_postmortem"), "lifecycle"),
    **dict.fromkeys(("Counter", "Gauge", "Histogram", "MetricRegistry",
                     "MetricsSnapshot"), "metrics"),
    **dict.fromkeys(("RunMonitor", "format_serve_summary", "format_summary"),
                    "monitor"),
    **dict.fromkeys(("RegressReport", "compare", "load_baseline",
                     "metrics_from_serve"), "regress"),
    **dict.fromkeys(("format_slo_report", "slo_gate_metrics", "slo_report"), "slo"),
}
__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

#: Environment variable enabling the debug-mode trace validation the
#: engine and both real backends run after a traced run.
DEBUG_TRACE_ENV = "REPRO_DEBUG_TRACE"


def trace_validation_enabled() -> bool:
    """Whether the debug flag asking for post-run ``Trace.validate()``
    is set (any non-empty value that is not ``"0"``)."""
    value = os.environ.get(DEBUG_TRACE_ENV, "")
    return bool(value) and value != "0"


__all__ = [
    "Counter",
    "CritPathReport",
    "DEBUG_TRACE_ENV",
    "FlightRecorder",
    "Gauge",
    "Histogram",
    "LifeSpan",
    "LifecycleTracer",
    "MetricRegistry",
    "MetricsSnapshot",
    "RegressReport",
    "RunMonitor",
    "TraceDiff",
    "compare",
    "critical_path",
    "diff_results",
    "diff_traces",
    "find_stragglers",
    "format_postmortem",
    "format_serve_summary",
    "format_slo_report",
    "format_summary",
    "load_baseline",
    "load_postmortem",
    "metrics_from_serve",
    "publish_critpath_metrics",
    "slo_gate_metrics",
    "slo_report",
    "trace_validation_enabled",
]
