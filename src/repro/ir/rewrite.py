"""Shared rewrite machinery: graph rebuilding, payload packing and
the composite kernels the coarsening pass emits.

The execution contract every backend honours (engine, threads,
processes) is ``kernel(inputs, task) -> {tag: payload}`` with inputs
keyed ``(producer_key, tag)``.  Rewrites that merge tasks or coalesce
flows must keep *member* kernels oblivious: a coarsened super-task
runs its original member kernels against the original key space, and
a :class:`PackedPayload` -- the aggregated payload of one coalesced
flow -- is transparently expanded back into original keys by
:func:`expand_inputs` before any member kernel sees it.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Iterable, Mapping

import numpy as np

from ..runtime.graph import TaskGraph
from ..runtime.task import Task, TaskKey
from .core import PassError


class PackedPayload(dict):
    """The payload of one coalesced flow: ``{(orig_key, tag): payload}``.

    A plain dict subclass so it pickles across the process backend's
    pipes unchanged; the type itself is the marker
    :func:`expand_inputs` dispatches on.
    """


def pack_payload(items: Mapping[tuple[TaskKey, str], Any]) -> PackedPayload:
    """Bundle member payloads, freezing arrays exactly as the engine
    does for singleton payloads (consumer mutation stays a bug)."""
    packed = PackedPayload(items)
    for payload in packed.values():
        if isinstance(payload, np.ndarray):
            payload.setflags(write=False)
    return packed


def expand_inputs(inputs: Mapping[tuple[TaskKey, str], Any]) -> dict:
    """Flatten any packed payloads back into the original key space."""
    out: dict[tuple[TaskKey, str], Any] = {}
    for key, value in inputs.items():
        if isinstance(value, PackedPayload):
            out.update(value)
        else:
            out[key] = value
    return out


def _member_inputs(store: dict, member: Task) -> dict:
    """Gather one member's inputs from the composite-local store,
    auto-filling absent zero-byte control edges with ``None`` (the
    same leniency the engine applies at task boundaries)."""
    gathered: dict[tuple[TaskKey, str], Any] = {}
    for flow in member.inputs:
        key = (flow.producer, flow.tag)
        if key in store:
            gathered[key] = store[key]
        elif flow.nbytes == 0:
            gathered[key] = None
        else:
            raise RuntimeError(
                f"payload {key!r} missing when member "
                f"{member.key!r} started"
            )
    return gathered


def _run_member(store: dict, member: Task) -> None:
    """Run one member kernel against the composite store, publishing
    its outputs under the member's original key."""
    outputs = (
        dict(member.kernel(_member_inputs(store, member), member))
        if member.kernel is not None else {}
    )
    for tag, payload in outputs.items():
        if isinstance(payload, np.ndarray):
            payload.setflags(write=False)
        store[(member.key, tag)] = payload


class SuperKernel:
    """Kernel of a coarsened super-task.

    Members are independent (same topological level), so they run in
    deterministic key order; the outputs are re-bundled per outgoing
    coalesced flow according to ``pack_spec``.
    """

    __slots__ = ("members", "pack_spec")

    def __init__(
        self,
        members: tuple[Task, ...],
        pack_spec: dict[str, tuple[tuple[TaskKey, str], ...]],
    ) -> None:
        self.members = members
        self.pack_spec = pack_spec

    def __call__(self, inputs: Mapping, task: Task) -> dict:
        store = expand_inputs(inputs)
        for member in self.members:
            _run_member(store, member)
        return {
            tag: pack_payload({part: store.get(part) for part in parts})
            for tag, parts in self.pack_spec.items()
        }


class UnpackKernel:
    """Adapter for a plain task some of whose producers were
    coarsened: expands packed inputs, then defers to the original
    kernel (which keeps seeing the original key space)."""

    __slots__ = ("inner",)

    def __init__(self, inner) -> None:
        self.inner = inner

    def __call__(self, inputs: Mapping, task: Task) -> dict:
        return self.inner(expand_inputs(inputs), task)


# -- graph/build rebuilding ----------------------------------------------


#: A copy of a task with selected attributes replaced.
clone_task = Task.clone


def rebuild_graph(tasks: Iterable[Task], validate: bool = True) -> TaskGraph:
    """A fresh finalized graph over ``tasks``."""
    graph = TaskGraph()
    for task in tasks:
        graph.add(task)
    return graph.finalize(validate=validate)


def with_graph(build: Any, graph: TaskGraph) -> Any:
    """The same build context around a rewritten graph.

    Works for any (frozen) dataclass build with a ``graph`` field --
    both the stencil :class:`~repro.core.dataflow.BuildResult` and the
    PETSc one -- so structural passes stay front-end agnostic.
    """
    if dataclasses.is_dataclass(build):
        return dataclasses.replace(build, graph=graph)
    raise PassError(
        f"cannot rebuild {type(build).__name__}: expected a dataclass "
        "build with a 'graph' field"
    )


def topo_levels(graph: TaskGraph) -> dict[TaskKey, int]:
    """Longest-path level of every task (sources at 0).

    Along every edge the level strictly increases, so merging
    same-level tasks can never create a cycle -- the property the
    coarsening pass builds on.
    """
    levels: dict[TaskKey, int] = {}
    for key in graph.topological_order():
        task = graph[key]
        level = 0
        for flow in task.inputs:
            level = max(level, levels[flow.producer] + 1)
        levels[key] = level
    return levels


def terminal_outputs(graph: TaskGraph) -> set[tuple[TaskKey, str]]:
    """(key, tag) slots with no consumers -- what the backends expose
    as terminal ``results`` (the grid lives there).  Structural passes
    must keep this set bit-identical."""
    return {
        (key, tag)
        for key, tags in graph.out_tags.items()
        for tag in tags
        if not graph.consumers.get((key, tag))
    }


def sort_key(key: TaskKey) -> str:
    """Deterministic order over heterogeneous task keys."""
    return repr(key)
