"""``publish_run`` publishes what the three per-backend publishers did.

``tests/data/run_metrics_parent.json`` was generated by this file's
``__main__`` **at the parent commit** (638efb8, where the engine, the
threaded executor and every forked node each named the series
themselves): per backend, every ``series{labels}`` cell one run
published, with its value where the value is repeatable -- every cell
on ``sim`` (virtual time is deterministic), the integer-valued cells
on the real backends (``null`` = a wall-clock float: the cell must
exist, its value is not pinned).  The fold reproduces it exactly minus
the series since deleted: those nothing read, and the steal count,
which went with work stealing (its cell is cut from the fixture).

One thing depends on the schedule and is compared apart -- whether
every worker got a task: the fold creates no zero-valued cell on any
backend (the simulator never did; the real backends' publishers wrote
``0.0`` for a worker thread that ran nothing), so a
``worker_busy_seconds_total`` cell may be missing exactly when that
worker's busy time is zero.
"""

from __future__ import annotations

import json
import pathlib
import sys
from collections import Counter

import pytest

from repro.core.runner import run
from repro.exec import fork_available
from repro.machine.machine import nacl
from repro.obs import MetricRegistry
from repro.stencil.problem import JacobiProblem

FIXTURE = pathlib.Path(__file__).parent / "data" / "run_metrics_parent.json"

BACKENDS = {
    "sim": {},
    "threads": {"jobs": 2},
    "processes": {"procs": 2, "jobs": 1},
}

#: Series the parent published that no gate, CLI, test or benchmark
#: read (``tools/metric_audit.py`` keeps the list empty from here on).
DELETED = {
    "local_edges_total", "local_bytes_total", "ready_queue_max_depth",
    "ready_queue_pushes_total", "comm_backlog_max",
}


def published(backend: str):
    """One instrumented run of the pinned configuration: the result and
    its ``series{k=v,...}`` -> value cells."""
    registry = MetricRegistry()
    result = run(JacobiProblem(n=64, iterations=8), nacl(2), impl="ca-parsec",
                 tile=16, steps=4, backend=backend, metrics=registry,
                 **BACKENDS[backend])
    cells = {}
    for name, entry in result.metrics.data.items():
        for labels, state in entry["values"].items():
            value = state["value"] if entry["kind"] == "gauge" else state
            text = ",".join(f"{k}={v}" for k, v in labels)
            cells[f"{name}{{{text}}}"] = value
    return result, cells


def _series(cell: str) -> str:
    return cell.split("{", 1)[0]


@pytest.mark.parametrize("backend", list(BACKENDS))
@pytest.mark.timeout(600)
def test_fold_reproduces_the_parent_publishers(backend):
    if backend == "processes" and not fork_available():
        pytest.skip("needs POSIX fork")
    parent = json.loads(FIXTURE.read_text())[backend]
    expected = {cell: value for cell, value in parent.items()
                if _series(cell) not in DELETED}
    result, cells = published(backend)
    report = result.engine
    workers = len(report.worker_busy) // len(report.node_busy)
    idle = {
        "worker_busy_seconds_total{node=%d,worker=%d}" % divmod(index, workers)
        for index, seconds in report.worker_busy.items() if not seconds
    }
    pinned = {cell: value for cell, value in expected.items() if value is not None}
    if backend != "sim":
        # The real backends run node blocks since the parent, and threads
        # one block for the grid: their task counts and census are the
        # executed graph's, the cells the same but for the task kinds.
        executed = {f"tasks_executed_total{{kind={kind}}}": count for kind, count
                    in Counter(task.kind for task in result.graph).items()}
        census = result.graph.census()
        expected = {cell: value for cell, value in expected.items()
                    if not cell.startswith("tasks_executed_total{")} | executed
        pinned = {cell: value for cell, value in pinned.items()
                  if not cell.startswith("tasks_executed_total{")} | executed
        pinned["tasks_total{}"] = len(result.graph)
        pinned["census_messages{}"] = census.remote_messages
        pinned["census_message_bytes{}"] = census.remote_bytes
    assert set(cells) == set(expected) - idle
    assert {cell: cells[cell] for cell in pinned} == pinned


def test_fixture_holds_what_the_parent_published():
    """15 / 7 / 11 series at the parent, the steal count (the threads
    run's eighth, when that run stole) aside."""
    parent = json.loads(FIXTURE.read_text())
    counts = {b: len({_series(c) for c in cells}) for b, cells in parent.items()}
    assert counts == {"sim": 15, "threads": 7, "processes": 11}
    assert DELETED <= {_series(c) for c in parent["sim"]}


if __name__ == "__main__":  # regenerate: run at the commit to pin
    doc = {}
    for name in BACKENDS:
        _, found = published(name)
        doc[name] = {
            cell: value if name == "sim" or isinstance(value, int) else None
            for cell, value in sorted(found.items())
        }
    FIXTURE.parent.mkdir(exist_ok=True)
    FIXTURE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {FIXTURE}", file=sys.stderr)
