"""Bounded metric time-series: retained history + derived signals.

Every observability surface before this module was a point-in-time
snapshot (``RunMonitor.sample()``, ``repro stats``) or a post-hoc
report (``repro slo``).  :class:`TimeSeriesStore` keeps the missing
operational half: a bounded ring of samples **per series** (one series
= one metric name + one label set), fed by a
:class:`TelemetrySampler` thread that snapshots the live
:class:`~repro.obs.metrics.MetricRegistry` at a configurable interval.

Derived-signal queries turn the retained cumulative states into the
operational quantities alerting needs:

* :meth:`TimeSeriesStore.rate` / :meth:`TimeSeriesStore.increase` --
  counter deltas over a trailing window (a counter born inside the
  window counts from zero, matching its cumulative semantics);
* :meth:`TimeSeriesStore.ewma` -- irregular-interval exponential
  moving average of a gauge;
* :meth:`TimeSeriesStore.window_quantile` -- quantiles of *only the
  observations that landed in the window*, computed by subtracting
  cumulative histogram states and merging the per-cell deltas through
  :func:`~repro.obs.metrics.merge_histogram_states`;
* :meth:`TimeSeriesStore.mad_z` -- the modified z-score of the latest
  point against the series' history, reusing the MAD machinery
  straggler detection already trusts
  (:func:`repro.obs.critpath.robust_scores`).

Clock discipline: every internal timestamp is ``time.monotonic()``
(wall-clock deltas break under clock adjustment); wall timestamps are
carried *only* as annotations on exported points.  The JSONL
export/import (:meth:`TimeSeriesStore.to_jsonl` /
:meth:`TimeSeriesStore.from_jsonl` / :func:`read_series_jsonl`) makes
a recorded run replayable: the alert engine evaluated against the
same file produces byte-identical transition logs.
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import deque
from pathlib import Path
from typing import Any, Callable, Mapping

from .critpath import robust_scores
from .metrics import (
    LabelSet,
    MetricRegistry,
    MetricsSnapshot,
    _labelset,
    label_str,
    merge_histogram_states,
    parse_label_str,
    quantile_from_state,
)

__all__ = [
    "SERIES_KIND",
    "TelemetrySampler",
    "TimeSeriesStore",
    "read_series_jsonl",
]

#: discriminator in the JSONL header line, so ``repro alerts --series``
#: can reject files that are not series exports
SERIES_KIND = "repro-timeseries"


def _subtract_hist(last: Mapping, base: Mapping) -> dict:
    """In-window histogram state: cumulative ``last`` minus cumulative
    ``base``.  The observed min/max stay ``last``'s -- a conservative
    clamp (the window's true extrema lie within the lifetime's)."""
    if list(last["bounds"]) != list(base["bounds"]):
        raise ValueError("histogram bucket mismatch across samples")
    return {
        "bounds": list(last["bounds"]),
        "buckets": [a - b for a, b in zip(last["buckets"], base["buckets"])],
        "count": last["count"] - base["count"],
        "sum": last["sum"] - base["sum"],
        "min": last.get("min"),
        "max": last.get("max"),
    }


class TimeSeriesStore:
    """Bounded in-memory metric history with derived-signal queries.

    One ring (``deque(maxlen=capacity)``) per series keyed by
    ``(metric name, label set)``; a parallel ring of sample times.
    Ingest is one lock acquisition per sample -- the sampler thread is
    the only steady-state writer, readers (``repro top``, the alert
    engine) take the same lock briefly.  Values stored per point:

    * counter -- the cumulative number,
    * gauge -- the current level (the high-water mark is derivable
      as ``max`` over retained points),
    * histogram -- the cumulative state dict the snapshot emitted.
    """

    SCHEMA = 1

    def __init__(self, capacity: int = 512) -> None:
        if capacity < 2:
            raise ValueError(
                f"capacity must be at least 2 (deltas need two points), "
                f"got {capacity}"
            )
        self.capacity = capacity
        self._lock = threading.RLock()
        #: (monotonic, wall) per retained sample
        self._times: deque[tuple[float, float]] = deque(maxlen=capacity)
        self._series: dict[str, dict[LabelSet, deque]] = {}
        self._meta: dict[str, dict] = {}
        #: first-ever sample time per series (cumulative metrics born
        #: inside a query window count from zero)
        self._born: dict[tuple[str, LabelSet], float] = {}
        self._ingested = 0

    # -- ingest ------------------------------------------------------

    def observe(
        self,
        snapshot: MetricsSnapshot,
        live: Mapping[str, float] | None = None,
        t: float | None = None,
        wall: float | None = None,
    ) -> float:
        """Record one registry snapshot (plus, optionally, a backend
        ``progress()`` dict recorded as ``live_<key>`` gauges); returns
        the sample's monotonic time."""
        data = dict(snapshot.data)
        if live:
            for key, value in live.items():
                if not isinstance(value, (int, float)):
                    continue
                data[f"live_{key}"] = {
                    "kind": "gauge",
                    "help": "sampled progress()",
                    "unit": "",
                    "values": {(): {"value": float(value),
                                    "max": float(value)}},
                }
        return self.ingest(data, t=t, wall=wall)

    def ingest(
        self,
        data: Mapping[str, Mapping],
        t: float | None = None,
        wall: float | None = None,
    ) -> float:
        """Record one sample from raw snapshot ``data`` (the
        :attr:`MetricsSnapshot.data` shape).  Sample times must
        strictly increase -- the store's clock is the ground truth the
        alert engine evaluates against."""
        with self._lock:
            if t is None:
                t = time.monotonic()
            if wall is None:
                wall = time.time()
            if self._times and t <= self._times[-1][0]:
                raise ValueError(
                    f"sample time must increase (got {t}, last "
                    f"{self._times[-1][0]})"
                )
            self._times.append((float(t), float(wall)))
            self._ingested += 1
            for name, entry in data.items():
                kind = entry.get("kind", "untyped")
                if name not in self._meta:
                    self._meta[name] = {
                        "kind": kind,
                        "help": entry.get("help", ""),
                        "unit": entry.get("unit", ""),
                    }
                cells = self._series.setdefault(name, {})
                for ls, state in entry.get("values", {}).items():
                    if kind == "gauge" and isinstance(state, Mapping):
                        value: Any = float(state["value"])
                    elif kind == "histogram":
                        value = dict(state)
                    else:
                        value = state
                    ring = cells.get(ls)
                    if ring is None:
                        ring = cells[ls] = deque(maxlen=self.capacity)
                        self._born[(name, ls)] = float(t)
                    ring.append((float(t), value))
            return float(t)

    # -- introspection -------------------------------------------------

    def __len__(self) -> int:
        """Samples currently retained (<= capacity)."""
        with self._lock:
            return len(self._times)

    @property
    def samples(self) -> int:
        """Samples ever ingested (monotone; survives ring eviction)."""
        with self._lock:
            return self._ingested

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._series)

    def meta(self, name: str) -> dict | None:
        with self._lock:
            entry = self._meta.get(name)
            return dict(entry) if entry else None

    def kind(self, name: str) -> str | None:
        with self._lock:
            entry = self._meta.get(name)
            return entry["kind"] if entry else None

    def labelsets(self, name: str) -> list[LabelSet]:
        with self._lock:
            return sorted(self._series.get(name, {}))

    def latest_time(self) -> float | None:
        with self._lock:
            return self._times[-1][0] if self._times else None

    def points(self, name: str, **labels: object) -> list[tuple[float, Any]]:
        """Copy of one series' retained ``(t, value)`` points."""
        with self._lock:
            ring = self._series.get(name, {}).get(_labelset(labels))
            return list(ring) if ring else []

    def latest(self, name: str, **labels: object) -> float | None:
        """Latest value of one series.  Without labels: counters sum
        across cells, a gauge falls back to its single cell (ambiguous
        multi-cell gauges return None), histograms return their count."""
        with self._lock:
            cells = self._select(name, labels)
            if not cells:
                return None
            kind = self._meta[name]["kind"]
            if kind == "counter":
                return float(sum(ring[-1][1] for _, ring in cells))
            if len(cells) > 1:
                return None
            value = cells[0][1][-1][1]
            if kind == "histogram":
                return float(value["count"])
            return float(value)

    def _select(
        self, name: str, labels: Mapping[str, object]
    ) -> list[tuple[LabelSet, deque]]:
        cells = self._series.get(name)
        if not cells:
            return []
        if labels:
            key = _labelset(labels)
            ring = cells.get(key)
            return [(key, ring)] if ring else []
        return sorted(cells.items())

    # -- derived signals ---------------------------------------------

    def _require(self, name: str, kind: str) -> bool:
        meta = self._meta.get(name)
        if meta is None:
            return False
        if meta["kind"] != kind:
            raise ValueError(
                f"{name!r} is a {meta['kind']}, not a {kind}"
            )
        return True

    def increase(
        self,
        name: str,
        window_s: float,
        now: float | None = None,
        **labels: object,
    ) -> float | None:
        """Counter growth over the trailing window (summed across
        cells without labels).  None when the metric has no samples in
        the window."""
        with self._lock:
            per_cell = self.cell_increases(name, window_s, now=now)
            if labels:
                return per_cell.get(_labelset(labels))
            return sum(per_cell.values()) if per_cell else None

    def cell_increases(
        self, name: str, window_s: float, now: float | None = None
    ) -> dict[LabelSet, float]:
        """Per-label-set counter growth over the trailing window --
        the burn-rate rule's raw material (it needs the status label
        of every cell, not the aggregate)."""
        if window_s <= 0:
            raise ValueError(f"window must be positive, got {window_s}")
        with self._lock:
            if not self._require(name, "counter"):
                return {}
            if now is None:
                now = self._times[-1][0] if self._times else None
            if now is None:
                return {}
            start = now - window_s
            out: dict[LabelSet, float] = {}
            for ls, ring in self._series[name].items():
                pts = [(t, v) for t, v in ring if start <= t <= now]
                if not pts:
                    continue
                if self._born[(name, ls)] >= start:
                    out[ls] = float(pts[-1][1])  # born in-window: from 0
                else:
                    out[ls] = float(pts[-1][1] - pts[0][1])
            return out

    def rate(
        self,
        name: str,
        window_s: float,
        now: float | None = None,
        **labels: object,
    ) -> float | None:
        """Per-second counter rate over the trailing window."""
        with self._lock:
            if not self._require(name, "counter") or not self._times:
                return None
            if now is None:
                now = self._times[-1][0]
            start = now - window_s
            total, t0 = 0.0, None
            for ls, ring in self._select(name, labels):
                pts = [(t, v) for t, v in ring if start <= t <= now]
                if not pts:
                    continue
                first_t, first_v = pts[0]
                t0 = first_t if t0 is None else min(t0, first_t)
                if self._born[(name, ls)] >= start:
                    total += float(pts[-1][1])
                else:
                    total += float(pts[-1][1] - first_v)
            if t0 is None or now - t0 <= 0:
                return None
            return total / (now - t0)

    def ewma(
        self,
        name: str,
        tau_s: float = 30.0,
        **labels: object,
    ) -> float | None:
        """Exponential moving average of a gauge over its retained
        points, weighted for irregular sampling intervals."""
        if tau_s <= 0:
            raise ValueError(f"tau must be positive, got {tau_s}")
        with self._lock:
            if not self._require(name, "gauge"):
                return None
            cells = self._select(name, labels)
            if not labels and len(cells) > 1:
                raise ValueError(
                    f"ewma({name!r}) is ambiguous across "
                    f"{len(cells)} label sets; pass labels"
                )
            if not cells:
                return None
            pts = list(cells[0][1])
            value = float(pts[0][1])
            for (t0, _), (t1, v1) in zip(pts, pts[1:]):
                w = math.exp(-(t1 - t0) / tau_s)
                value = w * value + (1.0 - w) * float(v1)
            return value

    def window_quantile(
        self,
        name: str,
        q: float,
        window_s: float,
        now: float | None = None,
        **labels: object,
    ) -> float | None:
        """Quantile of the observations that landed in the trailing
        window: per-cell cumulative-state deltas, merged across cells
        (without labels) via :func:`merge_histogram_states`.  None
        when nothing was observed in the window."""
        if window_s <= 0:
            raise ValueError(f"window must be positive, got {window_s}")
        with self._lock:
            if not self._require(name, "histogram") or not self._times:
                return None
            if now is None:
                now = self._times[-1][0]
            start = now - window_s
            states = []
            for ls, ring in self._select(name, labels):
                last = None
                base = None
                for t, state in ring:
                    if t > now:
                        break
                    if t < start:
                        base = state
                    last = state
                if last is None or not last["count"]:
                    continue
                delta = last if base is None else _subtract_hist(last, base)
                if delta["count"] > 0:
                    states.append(delta)
            if not states:
                return None
            merged = merge_histogram_states(states)
            if merged is None or not merged["count"]:
                return None
            return quantile_from_state(merged, q)

    def mad_z(
        self,
        name: str,
        window_s: float | None = None,
        **labels: object,
    ) -> float | None:
        """Modified z-score (MAD-scaled) of the latest point against
        the series' retained history -- the anomaly signal.  Counters
        are scored on their per-interval increments.  Returns 0.0 when
        the history has exactly zero spread (nothing is anomalous
        against a flat line) and None below 4 points."""
        with self._lock:
            meta = self._meta.get(name)
            if meta is None:
                return None
            cells = self._select(name, labels)
            if not labels and len(cells) > 1:
                raise ValueError(
                    f"mad_z({name!r}) is ambiguous across "
                    f"{len(cells)} label sets; pass labels"
                )
            if not cells:
                return None
            pts = list(cells[0][1])
            if window_s is not None and self._times:
                start = self._times[-1][0] - window_s
                pts = [p for p in pts if p[0] >= start]
            if meta["kind"] == "histogram":
                values = [float(v["count"]) for _, v in pts]
            else:
                values = [float(v) for _, v in pts]
            if meta["kind"] == "counter":
                values = [b - a for a, b in zip(values, values[1:])]
            if len(values) < 4:
                return None
            scored = robust_scores(values)
            if scored is None:
                return 0.0
            return scored[0][-1]

    # -- export / import ------------------------------------------------

    def to_jsonl(self, path: str | Path) -> Path:
        """Write the retained history as one JSONL document: a header
        line (kind/schema/capacity/metric metadata), then one line per
        sample.  Deterministic: names and label strings are sorted and
        every object is dumped with ``sort_keys``."""
        with self._lock:
            times = list(self._times)
            meta = {name: dict(m) for name, m in sorted(self._meta.items())}
            rows: dict[float, dict] = {t: {} for t, _ in times}
            for name, cells in self._series.items():
                for ls, ring in cells.items():
                    key = label_str(ls)
                    for t, value in ring:
                        row = rows.get(t)
                        if row is not None:
                            row.setdefault(name, {})[key] = value
        lines = [json.dumps({
            "kind": SERIES_KIND,
            "schema": self.SCHEMA,
            "capacity": self.capacity,
            "meta": meta,
        }, sort_keys=True)]
        for t, wall in times:
            lines.append(json.dumps(
                {"t": t, "wall": wall, "values": rows[t]}, sort_keys=True
            ))
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("\n".join(lines) + "\n")
        return path

    @classmethod
    def from_jsonl(cls, path: str | Path) -> "TimeSeriesStore":
        """Rebuild a store from :meth:`to_jsonl` output."""
        header, samples = read_series_jsonl(path)
        store = cls(capacity=int(header.get("capacity", 512)))
        for t, wall, data in samples:
            store.ingest(data, t=t, wall=wall)
        return store


def read_series_jsonl(
    path: str | Path,
) -> tuple[dict, list[tuple[float, float, dict]]]:
    """Parse a series JSONL export into ``(header, samples)`` where
    each sample is ``(t, wall, data)`` in the snapshot ``data`` shape
    (label strings decoded back to label-set tuples) -- ready to feed
    :meth:`TimeSeriesStore.ingest` one sample at a time, which is
    exactly how the alert engine replays a recorded run."""
    path = Path(path)
    lines = path.read_text().splitlines()
    if not lines:
        raise ValueError(f"{path}: empty series file")
    header = json.loads(lines[0])
    if not isinstance(header, dict) or header.get("kind") != SERIES_KIND:
        raise ValueError(
            f"{path}: not a series export (expected kind={SERIES_KIND!r})"
        )
    meta = header.get("meta", {})
    samples: list[tuple[float, float, dict]] = []
    for line in lines[1:]:
        if not line.strip():
            continue
        row = json.loads(line)
        data: dict = {}
        for name, values in row.get("values", {}).items():
            m = meta.get(name, {})
            data[name] = {
                "kind": m.get("kind", "untyped"),
                "help": m.get("help", ""),
                "unit": m.get("unit", ""),
                "values": {
                    parse_label_str(key): value
                    for key, value in values.items()
                },
            }
        samples.append((float(row["t"]), float(row.get("wall", 0.0)), data))
    return header, samples


class TelemetrySampler:
    """Background thread snapshotting a registry into a store.

    All scheduling is monotonic (``threading.Event.wait`` on a fixed
    interval); the optional ``progress`` callable's numeric fields are
    recorded as ``live_<key>`` gauge series; ``on_sample(t)`` fires
    after each sample lands -- the service hangs alert evaluation off
    it so alerting shares the store's clock.  ``stop()`` joins the
    thread and takes one final sample so short runs still record their
    terminal state.
    """

    def __init__(
        self,
        registry: MetricRegistry,
        store: TimeSeriesStore,
        interval_s: float = 1.0,
        progress: Callable[[], Mapping[str, Any]] | None = None,
        on_sample: Callable[[float], None] | None = None,
    ) -> None:
        if interval_s <= 0:
            raise ValueError(
                f"interval must be positive, got {interval_s}"
            )
        self.registry = registry
        self.store = store
        self.interval_s = interval_s
        self.progress = progress
        self.on_sample = on_sample
        self._thread: threading.Thread | None = None
        self._stop = threading.Event()

    def sample(self) -> float | None:
        """Take one sample now; returns its time (None if the store
        refused it -- e.g. a same-instant duplicate at shutdown)."""
        snapshot = self.registry.snapshot()
        live = None
        if self.progress is not None:
            try:
                live = self.progress()
            except Exception:
                live = None  # the service may be tearing down under us
        try:
            t = self.store.observe(snapshot, live=live)
        except ValueError:
            return None
        if self.on_sample is not None:
            self.on_sample(t)
        return t

    def start(self) -> "TelemetrySampler":
        if self._thread is not None:
            return self
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._loop, name="repro-sampler", daemon=True
        )
        self._thread.start()
        return self

    def _loop(self) -> None:
        while not self._stop.wait(self.interval_s):
            self.sample()

    def stop(self, timeout: float = 5.0) -> None:
        """Stop the thread and take a final sample."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None
        self.sample()

    def __enter__(self) -> "TelemetrySampler":
        return self.start()

    def __exit__(self, *exc: object) -> None:
        self.stop()
