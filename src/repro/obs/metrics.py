"""Metrics registry: counters, gauges and histograms.

Design goals, in the order they mattered:

* **Cheap recording.**  A metric cell is a plain Python attribute that
  its (single) writer bumps without taking a lock -- the execution
  layers are already structured so that each hot counter has exactly
  one writer (a worker thread owns its lane, the engine is
  single-threaded), or the increment happens inside a critical section
  the layer already holds (a procs node's send tallies).  Cell
  *creation* is the only locked path, and layers hoist it out of hot
  loops by keeping the cell handle.
* **Exactness.**  A run's series are a fold of its finished report
  (:func:`publish_run`, the one place they are named), so the counters
  of every backend equal the report's -- and the report's measured
  message counts equal the static census -- by construction.
* **Process-safe merging.**  A registry snapshots to a plain-dict,
  pickle/JSON-friendly form; the service's forked workers ship batch
  snapshots home and the parent folds them back in with
  :meth:`MetricRegistry.merge`.
* **Snapshots.**  Readers poll with :meth:`MetricRegistry.snapshot`,
  a deterministic point-in-time copy.
"""

from __future__ import annotations

import threading
from bisect import bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping

#: Label values are stored as a sorted tuple of ``(key, value)`` pairs
#: so every equal label set hashes identically.
LabelSet = tuple[tuple[str, str], ...]

#: Default histogram bucket upper bounds (seconds-ish scale; callers
#: with other units pass their own ladder).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 0.1, 0.5, 1.0, 5.0, 30.0, 120.0,
)


def _labelset(labels: Mapping[str, object] | None) -> LabelSet:
    if not labels:
        return ()
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def label_str(ls: LabelSet) -> str:
    """A label set as ``k=v,k=v`` -- the JSON-safe key of snapshots."""
    return ",".join(f"{k}={v}" for k, v in ls)


def parse_label_str(text: str) -> LabelSet:
    """Inverse of :func:`label_str`."""
    if not text:
        return ()
    return tuple(
        tuple(part.split("=", 1))  # type: ignore[misc]
        for part in text.split(",")
    )


def bucket_quantile(
    bounds,
    buckets,
    count: int,
    vmin: float | None,
    vmax: float | None,
    q: float,
) -> float | None:
    """Quantile estimate from fixed-bucket histogram state.

    Walks the cumulative bucket counts to the bucket containing rank
    ``q * count`` and interpolates linearly within it; the observed
    ``vmin`` / ``vmax`` tighten the open-ended first and overflow
    buckets and clamp the result, so ``q=0``/``q=1`` are exact and a
    single-bucket distribution cannot report a value outside what was
    actually observed.  Returns None for an empty histogram.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not count or vmin is None or vmax is None:
        return None
    vmin, vmax = float(vmin), float(vmax)
    if q == 0.0:
        return vmin
    if q == 1.0:
        return vmax
    rank = q * count
    cumulative = 0
    for i, n in enumerate(buckets):
        if not n:
            continue
        previous = cumulative
        cumulative += n
        if cumulative >= rank:
            lo = bounds[i - 1] if i > 0 else vmin
            hi = bounds[i] if i < len(bounds) else vmax
            frac = (rank - previous) / n
            value = lo + (hi - lo) * frac
            return min(max(value, vmin), vmax)
    return vmax


def quantile_from_state(state: Mapping[str, object], q: float) -> float | None:
    """:func:`bucket_quantile` over one snapshot histogram state (the
    ``{"bounds", "buckets", "count", "sum", "min", "max"}`` dict that
    :meth:`MetricRegistry.snapshot` emits)."""
    return bucket_quantile(
        state["bounds"], state["buckets"], state["count"],
        state.get("min"), state.get("max"), q,
    )


def merge_histogram_states(states) -> dict | None:
    """Fold several same-bounds histogram states into one (buckets and
    counts add, min/max widen) -- the cross-tenant aggregate the SLO
    regression gate compares.  Returns None for an empty iterable."""
    out: dict | None = None
    for state in states:
        if out is None:
            out = {
                "bounds": list(state["bounds"]),
                "buckets": list(state["buckets"]),
                "count": state["count"],
                "sum": state["sum"],
                "min": state.get("min"),
                "max": state.get("max"),
            }
            continue
        if list(state["bounds"]) != out["bounds"]:
            raise ValueError("histogram bucket mismatch on merge")
        for i, n in enumerate(state["buckets"]):
            out["buckets"][i] += n
        out["count"] += state["count"]
        out["sum"] += state["sum"]
        if state["count"]:
            out["min"] = (
                state["min"] if out["min"] is None
                else min(out["min"], state["min"])
            )
            out["max"] = (
                state["max"] if out["max"] is None
                else max(out["max"], state["max"])
            )
    return out


class _Metric:
    """Common shape of the three metric families."""

    kind = "untyped"

    def __init__(self, name: str, help: str = "", unit: str = "") -> None:
        self.name = name
        self.help = help
        self.unit = unit
        self._lock = threading.Lock()
        self._cells: dict[LabelSet, object] = {}

    def _cell(self, labels: Mapping[str, object] | None, factory):
        key = _labelset(labels)
        cell = self._cells.get(key)
        if cell is None:
            with self._lock:
                cell = self._cells.setdefault(key, factory())
        return cell

    def cells(self) -> dict[LabelSet, object]:
        with self._lock:
            return dict(self._cells)


class CounterCell:
    """One labelled counter value; ``add`` is unlocked by design (see
    the module docstring for the single-writer discipline)."""

    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0

    def add(self, amount: int | float = 1) -> None:
        self.value += amount


class Counter(_Metric):
    """Monotonically increasing count (tasks run, messages, bytes)."""

    kind = "counter"

    def labels(self, **labels: object) -> CounterCell:
        """The cell for one label set; keep the handle in hot loops."""
        return self._cell(labels, CounterCell)

    def inc(self, amount: int | float = 1, **labels: object) -> None:
        if amount < 0:
            raise ValueError(f"counter {self.name} cannot decrease by {amount}")
        self._cell(labels, CounterCell).add(amount)

    def value(self, **labels: object) -> int | float:
        cell = self._cells.get(_labelset(labels))
        return cell.value if cell is not None else 0

    def total(self) -> int | float:
        """Sum over every label set."""
        return sum(c.value for c in self.cells().values())


class GaugeCell:
    """Last-written value plus the high-water mark."""

    __slots__ = ("value", "max")

    def __init__(self) -> None:
        self.value = 0.0
        self.max = 0.0

    def set(self, value: float) -> None:
        self.value = value
        if value > self.max:
            self.max = value


class Gauge(_Metric):
    """Point-in-time level (queue depth, progress, elapsed seconds)."""

    kind = "gauge"

    def labels(self, **labels: object) -> GaugeCell:
        return self._cell(labels, GaugeCell)

    def set(self, value: float, **labels: object) -> None:
        self._cell(labels, GaugeCell).set(value)

    def value(self, **labels: object) -> float:
        cell = self._cells.get(_labelset(labels))
        return cell.value if cell is not None else 0.0

    def high_water(self, **labels: object) -> float:
        cell = self._cells.get(_labelset(labels))
        return cell.max if cell is not None else 0.0


class HistogramCell:
    """Fixed-bucket histogram state (counts per bucket + sum/count)."""

    __slots__ = ("bounds", "buckets", "count", "sum", "min", "max")

    def __init__(self, bounds: tuple[float, ...]) -> None:
        self.bounds = bounds
        self.buckets = [0] * (len(bounds) + 1)  # last bucket = +Inf
        self.count = 0
        self.sum = 0.0
        self.min = float("inf")
        self.max = float("-inf")

    def observe(self, value: float) -> None:
        self.buckets[bisect_right(self.bounds, value)] += 1
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else 0.0

    def quantile(self, q: float) -> float | None:
        """Interpolated quantile of this cell (None when empty)."""
        return bucket_quantile(
            self.bounds, self.buckets, self.count,
            self.min if self.count else None,
            self.max if self.count else None,
            q,
        )


class Histogram(_Metric):
    """Distribution of observations (task durations, queue depths)."""

    kind = "histogram"

    def __init__(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> None:
        super().__init__(name, help, unit)
        self.buckets = tuple(sorted(set(float(b) for b in buckets)))
        if not self.buckets:
            raise ValueError("a histogram needs at least one bucket bound")

    def labels(self, **labels: object) -> HistogramCell:
        return self._cell(labels, lambda: HistogramCell(self.buckets))

    def observe(self, value: float, **labels: object) -> None:
        self.labels(**labels).observe(value)

    def quantile(self, q: float, **labels: object) -> float | None:
        """Interpolated quantile: with labels, that cell's; without,
        the aggregate across every label set.  None when empty.

        The aggregate goes through :func:`merge_histogram_states`, so
        cells whose bucket bounds disagree (possible after a merge
        from a registry that declared the metric with another ladder)
        raise instead of silently mis-summing positional buckets.
        """
        if labels:
            cell = self._cells.get(_labelset(labels))
            return cell.quantile(q) if cell is not None else None
        merged = merge_histogram_states(
            {
                "bounds": cell.bounds,
                "buckets": cell.buckets,
                "count": cell.count,
                "sum": cell.sum,
                "min": cell.min if cell.count else None,
                "max": cell.max if cell.count else None,
            }
            for cell in self.cells().values()
        )
        if merged is None or not merged["count"]:
            return None
        return quantile_from_state(merged, q)


@dataclass(frozen=True)
class MetricsSnapshot:
    """Immutable, JSON/pickle-friendly view of one registry moment.

    ``data`` maps metric name to
    ``{"kind", "help", "unit", "values": {labelset: state}}`` where the
    state is a number (counter), ``{"value", "max"}`` (gauge), or the
    bucket dict (histogram).  Label sets are tuples, so the structure
    round-trips through pickle untouched; :meth:`as_dict` flattens
    them for JSON.
    """

    data: dict

    def metrics(self) -> dict:
        return self.data

    def counter(self, name: str, **labels: object) -> int | float:
        """Summed counter value; with labels, that one cell only."""
        entry = self.data.get(name)
        if entry is None or entry["kind"] != "counter":
            return 0
        if labels:
            return entry["values"].get(_labelset(labels), 0)
        return sum(entry["values"].values())

    def gauge(self, name: str, **labels: object) -> float:
        entry = self.data.get(name)
        if entry is None or entry["kind"] != "gauge":
            return 0.0
        state = entry["values"].get(_labelset(labels))
        return state["value"] if state else 0.0

    def labelled(self, name: str) -> dict[LabelSet, object]:
        entry = self.data.get(name)
        return dict(entry["values"]) if entry else {}

    def as_dict(self) -> dict:
        """JSON-safe form: label sets become ``k=v,k=v`` strings."""
        out: dict = {}
        for name, entry in self.data.items():
            out[name] = {
                "kind": entry["kind"],
                "help": entry["help"],
                "unit": entry["unit"],
                "values": {
                    label_str(ls): state
                    for ls, state in entry["values"].items()
                },
            }
        return out

    @classmethod
    def from_dict(cls, doc: dict) -> "MetricsSnapshot":
        """Inverse of :meth:`as_dict`."""
        data: dict = {}
        for name, entry in doc.items():
            data[name] = {
                "kind": entry.get("kind", "untyped"),
                "help": entry.get("help", ""),
                "unit": entry.get("unit", ""),
                "values": {
                    parse_label_str(text): state
                    for text, state in entry.get("values", {}).items()
                },
            }
        return cls(data)


class MetricRegistry:
    """Named collection of metrics with snapshot/merge semantics.

    One registry serves one run, or one service (whose forked workers
    ship per-batch snapshots home to be merged).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._metrics: dict[str, _Metric] = {}

    # -- creation --------------------------------------------------------

    def _get_or_make(self, cls, name: str, help: str, unit: str, **kwargs):
        metric = self._metrics.get(name)
        if metric is None:
            with self._lock:
                metric = self._metrics.get(name)
                if metric is None:
                    metric = cls(name, help=help, unit=unit, **kwargs)
                    self._metrics[name] = metric
        if not isinstance(metric, cls):
            raise TypeError(
                f"metric {name!r} already registered as {metric.kind}, "
                f"not {cls.kind}"
            )
        return metric

    def counter(self, name: str, help: str = "", unit: str = "") -> Counter:
        return self._get_or_make(Counter, name, help, unit)

    def gauge(self, name: str, help: str = "", unit: str = "") -> Gauge:
        return self._get_or_make(Gauge, name, help, unit)

    def histogram(
        self,
        name: str,
        help: str = "",
        unit: str = "",
        buckets: Iterable[float] = DEFAULT_BUCKETS,
    ) -> Histogram:
        return self._get_or_make(Histogram, name, help, unit, buckets=buckets)

    # -- introspection ---------------------------------------------------

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._metrics)

    def get(self, name: str) -> _Metric | None:
        return self._metrics.get(name)

    # -- snapshot / merge ------------------------------------------------

    def snapshot(self) -> MetricsSnapshot:
        """Deterministic point-in-time copy (names and label sets are
        emitted sorted, so equal states produce equal snapshots)."""
        data: dict = {}
        with self._lock:
            metrics = sorted(self._metrics.items())
        for name, metric in metrics:
            values: dict = {}
            for ls, cell in sorted(metric.cells().items()):
                if isinstance(cell, CounterCell):
                    values[ls] = cell.value
                elif isinstance(cell, GaugeCell):
                    values[ls] = {"value": cell.value, "max": cell.max}
                else:
                    assert isinstance(cell, HistogramCell)
                    values[ls] = {
                        "bounds": list(cell.bounds),
                        "buckets": list(cell.buckets),
                        "count": cell.count,
                        "sum": cell.sum,
                        "min": cell.min if cell.count else None,
                        "max": cell.max if cell.count else None,
                    }
            data[name] = {
                "kind": metric.kind,
                "help": metric.help,
                "unit": metric.unit,
                "values": values,
            }
        return MetricsSnapshot(data)

    def merge(self, snapshot: MetricsSnapshot | dict) -> None:
        """Fold ``snapshot`` into this registry: counters and histogram
        buckets add, gauges keep the maximum of value and high-water
        mark (the only merge that is meaningful for a level)."""
        if isinstance(snapshot, dict):
            snapshot = MetricsSnapshot(snapshot)
        for name, entry in snapshot.data.items():
            kind = entry["kind"]
            help_, unit = entry.get("help", ""), entry.get("unit", "")
            for ls, state in entry["values"].items():
                labels = dict(ls)
                if kind == "counter":
                    self.counter(name, help_, unit).inc(state, **labels)
                elif kind == "gauge":
                    cell = self.gauge(name, help_, unit).labels(**labels)
                    cell.set(max(cell.value, state["value"]))
                    cell.max = max(cell.max, state["max"])
                elif kind == "histogram":
                    hist = self.histogram(
                        name, help_, unit, buckets=state["bounds"]
                    )
                    cell = hist.labels(**labels)
                    if list(cell.bounds) != list(state["bounds"]):
                        raise ValueError(
                            f"histogram {name!r} bucket mismatch on merge"
                        )
                    for i, n in enumerate(state["buckets"]):
                        cell.buckets[i] += n
                    cell.count += state["count"]
                    cell.sum += state["sum"]
                    if state["count"]:
                        cell.min = min(cell.min, state["min"])
                        cell.max = max(cell.max, state["max"])

    def clear(self) -> None:
        with self._lock:
            self._metrics.clear()


def publish_run(registry: MetricRegistry, report, graph) -> MetricsSnapshot:
    """Fold one finished run into ``registry``; returns its snapshot.

    The only place the run-level series are named.  Every backend's
    report builder calls it, when a registry is attached, with the
    report it is about to return and the graph it ran, and it reads
    nothing else: task counts by kind come off the graph (a report
    exists only for a run in which every task ran once), everything
    measured off the report -- ``worker_busy`` (dense, keyed
    ``node * workers + worker``), ``by_pair``, ``comm_busy`` and
    ``elapsed`` on every backend, ``wire_by_pair`` and ``comm_lanes``
    on ``processes``.  Zero-valued cells are not created.
    """
    tasks = registry.counter("tasks_executed_total",
                             "tasks executed, by kind", "tasks")
    kinds: dict[str, int] = {}
    for task in graph:
        kinds[task.kind] = kinds.get(task.kind, 0) + 1
    for kind, count in kinds.items():
        tasks.inc(count, kind=kind)
    workers = len(report.worker_busy) // max(1, len(report.node_busy))
    busy = registry.counter("worker_busy_seconds_total",
                            "busy time per compute worker", "seconds")
    for index, seconds in report.worker_busy.items():
        if seconds:
            node, worker = divmod(index, workers)
            busy.inc(seconds, node=node, worker=worker)
    if report.by_pair:
        msgs = registry.counter("messages_total",
                                "remote messages delivered, by lane", "messages")
        mbytes = registry.counter("message_bytes_total",
                                  "declared ghost-copy payload bytes, by lane",
                                  "bytes")
        for (src, dst), (count, nbytes) in report.by_pair.items():
            msgs.inc(count, src=src, dst=dst)
            mbytes.inc(nbytes, src=src, dst=dst)
    for (src, dst), nbytes in getattr(report, "wire_by_pair", {}).items():
        registry.counter("wire_bytes_total",
                         "bytes written to the shared-memory rings (payloads "
                         "+ record headers), by lane", "bytes").inc(
            nbytes, src=src, dst=dst)
    # On processes comm time is worker time, split by what the worker
    # was doing; the simulator's comm thread is one lane per node.
    lanes = getattr(report, "comm_lanes", None)
    if lanes is None:
        lanes = {(node, None): s for node, s in report.comm_busy.items()}
    for (node, lane), seconds in lanes.items():
        if seconds:
            labels = {"node": node} if lane is None else {"node": node, "lane": lane}
            registry.counter("comm_busy_seconds_total",
                             "time spent sending / receiving messages, per node",
                             "seconds").inc(seconds, **labels)
    registry.gauge("run_elapsed_seconds",
                   "makespan of the run (virtual seconds on the sim backend, "
                   "wall-clock on the real ones)", "seconds").set(report.elapsed)
    registry.gauge("tasks_total", "tasks in the executed graph",
                   "tasks").set(len(graph))
    registry.gauge("workers_per_node", "compute workers per node / process",
                   "workers").set(workers)
    return registry.snapshot()


__all__ = [
    "Counter",
    "CounterCell",
    "DEFAULT_BUCKETS",
    "Gauge",
    "GaugeCell",
    "Histogram",
    "HistogramCell",
    "MetricRegistry",
    "MetricsSnapshot",
    "bucket_quantile",
    "label_str",
    "merge_histogram_states",
    "parse_label_str",
    "publish_run",
    "quantile_from_state",
]
