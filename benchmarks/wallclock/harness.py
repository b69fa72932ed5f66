"""Measuring tools the workloads share: a GC-quiet stopwatch, robust
summaries, the in-memory span recorder, host probes and the hygiene
checks run after every workload."""

from __future__ import annotations

import gc
import json
import math
import os
import platform
import resource
import shutil
import statistics
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent

# -- stopwatch and summaries ---------------------------------------------


@contextmanager
def gc_quiet():
    """The collector out of the way: collected before, disabled within."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


def stopwatch(fn):
    """``(seconds, result)`` of one call."""
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def timed(fn):
    """``stopwatch`` under ``gc_quiet``: how every long call is timed.
    (A full collection costs ~20 ms here, so many short calls share
    one ``gc_quiet`` block instead.)"""
    with gc_quiet():
        return stopwatch(fn)


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives
    them; a single value is its own quartiles."""
    values = list(values)
    if len(values) < 2:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def iqr_frac(values) -> float:
    """Quartile spread as a share of the median; 0 for no values."""
    if not values:
        return 0.0
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * q)) - 1]


# -- spans ---------------------------------------------------------------


class Spans:
    """Spans of a traced run, kept in memory and written at exit.

    One span per call into a layer: ``{id, name, start, end, parent,
    solve_id}``, clock ``time.perf_counter``.  A layer's self time is
    its span minus what its children cover.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._lock = threading.Lock()

    def add(self, name: str, start: float, end: float, parent: int | None,
            solve_id: int) -> int:
        with self._lock:
            sid = len(self.spans)
            self.spans.append({"id": sid, "name": name, "start": start, "end": end,
                               "parent": parent, "solve_id": solve_id})
        return sid

    @contextmanager
    def span(self, name: str, parent: int | None, solve_id: int):
        """Record the enclosed block; yields the id children name as
        their parent (the span is appended up front so the id exists)."""
        sid = self.add(name, time.perf_counter(), 0.0, parent, solve_id)
        try:
            yield sid
        finally:
            self.spans[sid]["end"] = time.perf_counter()

    def children(self, sid: int) -> list[dict]:
        return [s for s in self.spans if s["parent"] == sid]

    def covered(self, sid: int) -> float:
        """Seconds of span ``sid`` that its direct children cover
        (their union: children of one parent may overlap)."""
        total, edge = 0.0, self.spans[sid]["start"]
        for child in sorted(self.children(sid), key=lambda s: s["start"]):
            lo, hi = max(child["start"], edge), child["end"]
            if hi > lo:
                total += hi - lo
                edge = hi
        return total

    def durations(self, name: str) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name]

    def unattributed_frac(self, root_name: str) -> float:
        """Median share of the ``root_name`` spans no child covers."""
        shares = [
            1.0 - self.covered(s["id"]) / (s["end"] - s["start"])
            for s in self.spans
            if s["name"] == root_name and s["end"] > s["start"]
        ]
        return statistics.median(shares) if shares else 0.0

    def write(self, path: Path, **header) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**header, "clock": "perf_counter", "spans": self.spans}))


# -- host probes ---------------------------------------------------------


def peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def cpu_seconds() -> float:
    """CPU seconds of this process and the children it has reaped."""
    t = os.times()  # children only at tick resolution; this process finer
    return time.process_time() + t.children_user + t.children_system


def cpu_ticks() -> tuple[int, int]:
    """(steal, total) jiffies of the whole host from ``/proc/stat``."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:9]]
    return fields[7], sum(fields)


def steal_frac(before: tuple[int, int], after: tuple[int, int]) -> float:
    total = after[1] - before[1]
    return (after[0] - before[0]) / total if total > 0 else 0.0


def host_facts() -> dict:
    import numpy

    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}-{kind}"] = (index / "size").read_text().strip()
        except OSError:
            continue
    return {
        "nproc": os.cpu_count(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
    }


# -- run directory and hygiene ----------------------------------------------


class RunDir:
    """A per-run scratch directory inside the benchmark's own directory
    (the benchmark may write nowhere else).  While it exists it is also
    the process's ``tempfile`` default, so service dumps and checkpoint
    state that fall back to the system temp dir land in it too."""

    def __init__(self) -> None:
        base = HERE / ".tmp"
        base.mkdir(exist_ok=True)
        self.path = Path(tempfile.mkdtemp(prefix="run-", dir=base))
        self._saved = tempfile.tempdir
        tempfile.tempdir = str(self.path)

    def sub(self, name: str) -> Path:
        path = self.path / name
        path.mkdir(parents=True, exist_ok=True)
        return path

    def postmortems(self) -> list[str]:
        return sorted(str(p) for p in self.path.rglob("postmortem-*.json"))

    def remove(self) -> None:
        tempfile.tempdir = self._saved
        shutil.rmtree(self.path, ignore_errors=True)


def _child_pids() -> list[int]:
    pids: list[int] = []
    for task in Path("/proc/self/task").iterdir():
        try:
            pids += [int(p) for p in (task / "children").read_text().split()]
        except OSError:
            continue
    return pids


def hygiene_failures(rundir: RunDir, grace_s: float = 2.0) -> list[str]:
    """What a finished workload left behind; an empty list is clean.

    Threads and children get a short grace period: executor watcher
    threads finish a moment after ``run()`` returns.
    """
    deadline = time.monotonic() + grace_s
    while True:
        threads = [t.name for t in threading.enumerate()
                   if t is not threading.main_thread() and t.is_alive()]
        children = _child_pids()
        if not (threads or children) or time.monotonic() >= deadline:
            break
        time.sleep(0.02)
    failures = []
    if threads:
        failures.append(f"threads still alive: {threads}")
    if children:
        failures.append(f"child processes still alive: {children}")
    dumps = rundir.postmortems()
    if dumps:
        failures.append(f"postmortem dumps written: {dumps}")
    rundir.remove()
    if rundir.path.exists():
        failures.append(f"temp directory survives: {rundir.path}")
    return failures
