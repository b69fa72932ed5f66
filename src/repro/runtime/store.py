"""The refcounted payload mailbox every backend routes data through.

A task's outputs live here from the moment it publishes them until
its last consumer has run; outputs nobody consumes are the run's
results.  The simulator engine, the thread pool and each node process
of the processes backend hold one store each and differ only in *when*
they call it (virtual task-start time, or a worker thread under the
pool's lock): the store itself takes no lock and keeps no clock.
"""

from __future__ import annotations

from typing import Any, Iterable

import numpy as np

from .graph import TaskGraph
from .task import Task, TaskKey


class PayloadStore:
    """``(producer, tag) -> payload`` for the flows consumed by ``tasks``.

    ``tasks`` is the set of tasks that will :meth:`gather` from this
    store -- the whole graph in one address space, one node's tasks in
    a node process (whose remote inputs arrive by :meth:`inject`).
    Not thread-safe: callers serialise access.
    """

    def __init__(self, graph: TaskGraph, tasks: Iterable[Task]) -> None:
        self.graph = graph
        #: terminal outputs: (key, tag) pairs no task in the graph consumes
        self.results: dict[tuple[TaskKey, str], Any] = {}
        #: consuming flows among ``tasks``, per (producer, tag)
        self._consumers: dict[tuple[TaskKey, str], int] = {}
        #: live payloads: (producer, tag) -> [payload, consumers left]
        self._live: dict[tuple[TaskKey, str], list] = {}
        count = self._consumers
        for task in tasks:
            for flow in task.inputs:
                key = (flow.producer, flow.tag)
                count[key] = count.get(key, 0) + 1

    def __len__(self) -> int:
        """Payloads currently held (0 after a complete run: no leak)."""
        return len(self._live)

    def gather(self, task: Task) -> dict[tuple[TaskKey, str], Any]:
        """The kernel inputs of ``task``, by (producer, tag)."""
        inputs: dict[tuple[TaskKey, str], Any] = {}
        for flow in task.inputs:
            key = (flow.producer, flow.tag)
            entry = self._live.get(key)
            if entry is None:
                raise RuntimeError(
                    f"payload {key!r} missing when task {task.key!r} started"
                )
            inputs[key] = entry[0]
        return inputs

    def publish(self, task: Task, outputs: dict[str, Any]) -> dict[str, Any]:
        """Take the outputs ``task``'s kernel returned.  Every tag a
        consumer expects must be there, except control edges
        (zero-byte flows nobody sized: pure ordering), which are filled
        with ``None``.  Arrays are frozen read-only to catch consumer
        mutation bugs.  Returns the completed outputs."""
        expected = self.graph.out_tags.get(task.key, ())
        missing = [tag for tag in expected if tag not in outputs]
        for tag in missing:
            if self.graph.flow_bytes(task.key, tag):
                raise RuntimeError(
                    f"task {task.key!r} produced tags "
                    f"{sorted(set(outputs) - set(missing))} but consumers "
                    f"expect {sorted(expected)}"
                )
            outputs[tag] = None
        for tag, payload in outputs.items():
            if isinstance(payload, np.ndarray):
                payload.setflags(write=False)
            self.inject(task.key, tag, payload)
        return outputs

    def inject(self, producer: TaskKey, tag: str, payload: Any) -> None:
        """Hold ``payload`` for its consumers among this store's tasks;
        one no task in the graph consumes is a result.  (An output
        consumed only elsewhere is neither: it was shipped.)"""
        key = (producer, tag)
        consumers = self._consumers.get(key, 0)
        if consumers:
            self._live[key] = [payload, consumers]
        elif key not in self.graph.consumers:
            self.results[key] = payload

    def release(self, task: Task) -> None:
        """``task`` has run: drop every input it was the last reader of."""
        for flow in task.inputs:
            key = (flow.producer, flow.tag)
            entry = self._live[key]
            entry[1] -= 1
            if entry[1] == 0:
                del self._live[key]


__all__ = ["PayloadStore"]
