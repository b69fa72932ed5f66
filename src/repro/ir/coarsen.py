"""Coarsening: cluster small-tile tasks into super-tasks.

Small tiles (the paper's Fig. 6 left edge) drown in per-task runtime
overhead and per-message software overhead.  This pass groups tasks
that live on the same node *and* the same topological level --
same-level tasks are provably independent, and every edge crosses
levels upward, so contraction cannot create a cycle -- into
super-tasks of at most ``factor`` members with summed cost/flops and
unioned external flows.

Flows between two super-tasks (or from a super-task to a plain task)
are coalesced into one *packed* flow whose payload is the
:class:`~repro.ir.rewrite.PackedPayload` bundle of the member
payloads and whose size is the sum of the member message sizes: n
messages become one message of the same total payload, which is
exactly where the per-message overhead saving comes from.  Plain
consumers of coarsened producers get an
:class:`~repro.ir.rewrite.UnpackKernel` adapter, so member kernels
never see the packing.

Tasks owning a terminal output slot (a tag with no consumers -- the
final grid tiles) are never coarsened: the result keys the build
promises must stay addressable.
"""

from __future__ import annotations

from ..runtime.graph import TaskGraph
from ..runtime.task import Flow, Task, TaskKey
from .core import GraphPass
from .rewrite import (
    SuperKernel,
    UnpackKernel,
    clone_task,
    rebuild_graph,
    sort_key,
    topo_levels,
    with_graph,
)

#: Kind label of the emitted super-tasks.
COARSE_KIND = "coarse"


class CoarsenPass(GraphPass):
    """Merge same-node same-level task groups into super-tasks."""

    name = "coarsen"
    preserves = (
        "useful_flops",
        "redundant_flops",
        "remote_messages_not_increased",
        "terminal_outputs",
    )

    def __init__(self, factor: int = 4) -> None:
        #: Members per super-task (>= 2; 1 would be the identity).
        self.factor = factor

    def params(self) -> dict:
        return {"factor": self.factor}

    # -- grouping ---------------------------------------------------------

    def _groups(self, graph: TaskGraph) -> dict[TaskKey, tuple]:
        """Map member key -> group id ``("ir-coarse", node, level, idx)``
        for every coarsened task."""
        levels = topo_levels(graph)
        buckets: dict[tuple[int, int], list[TaskKey]] = {}
        for task in graph:
            tags = graph.out_tags.get(task.key, ())
            if any(not graph.consumers.get((task.key, tag)) for tag in tags):
                continue  # terminal slot owner stays addressable
            buckets.setdefault((task.node, levels[task.key]), []).append(task.key)
        group_of: dict[TaskKey, tuple] = {}
        for (node, level), keys in buckets.items():
            keys.sort(key=sort_key)
            for idx in range(0, len(keys), self.factor):
                chunk = keys[idx:idx + self.factor]
                if len(chunk) < 2:
                    continue  # singleton super-tasks are the identity
                gid = ("ir-coarse", node, level, idx // self.factor)
                for key in chunk:
                    group_of[key] = gid
        return group_of

    # -- rewrite ----------------------------------------------------------

    def apply(self, build):
        graph: TaskGraph = build.graph
        group_of = self._groups(graph)
        if not group_of:
            return build, {"super_tasks": 0, "members": 0}

        members: dict[tuple, list[Task]] = {}
        for key, gid in group_of.items():
            members.setdefault(gid, []).append(graph[key])
        for tasks in members.values():
            tasks.sort(key=lambda t: sort_key(t.key))

        # Demand of every consumer (a group id or a plain task key) on
        # every producer group: which member outputs it needs, at what
        # message size.
        def consumer_id(key: TaskKey):
            gid = group_of.get(key)
            return ("g", gid) if gid is not None else ("t", key)

        demand: dict[tuple, dict[tuple, dict[tuple[TaskKey, str], int]]] = {}
        for task in graph:
            cid = consumer_id(task.key)
            for flow in task.inputs:
                pgid = group_of.get(flow.producer)
                if pgid is None:
                    continue
                part = (flow.producer, flow.tag)
                parts = demand.setdefault(pgid, {}).setdefault(cid, {})
                if part not in parts:
                    parts[part] = graph.flow_bytes(*part)

        # Assign one packed output tag per (producer group, consumer).
        pack_tag: dict[tuple, dict[tuple, str]] = {}
        for pgid, consumers in demand.items():
            tags = pack_tag[pgid] = {}
            for idx, cid in enumerate(sorted(consumers, key=sort_key)):
                tags[cid] = f"pk{idx}"

        def packed_flow(pgid: tuple, cid: tuple) -> Flow:
            parts = demand[pgid][cid]
            return Flow(pgid, pack_tag[pgid][cid], sum(parts.values()))

        new_tasks: list[Task] = []
        for gid, group in sorted(members.items(), key=lambda kv: sort_key(kv[0])):
            flows: dict[tuple[TaskKey, str], int] = {}
            packed: dict[tuple, Flow] = {}
            for member in group:
                for flow in member.inputs:
                    pgid = group_of.get(flow.producer)
                    if pgid is not None:
                        packed.setdefault(pgid, packed_flow(pgid, ("g", gid)))
                    else:
                        fkey = (flow.producer, flow.tag)
                        flows[fkey] = max(flows.get(fkey, 0), flow.nbytes)
            inputs = tuple(
                Flow(producer, tag, nbytes)
                for (producer, tag), nbytes in sorted(
                    flows.items(),
                    key=lambda item: (sort_key(item[0][0]), item[0][1]),
                )
            ) + tuple(packed[pgid] for pgid in sorted(packed, key=sort_key))
            pack_spec = {
                pack_tag[gid][cid]: tuple(sorted(parts, key=sort_key))
                for cid, parts in demand.get(gid, {}).items()
            }
            out_nbytes = {
                pack_tag[gid][cid]: sum(parts.values())
                for cid, parts in demand.get(gid, {}).items()
            }
            kernel = None
            if any(m.kernel is not None for m in group):
                kernel = SuperKernel(tuple(group), pack_spec)
            new_tasks.append(Task(
                key=gid,
                node=gid[1],
                inputs=inputs,
                cost=sum(m.cost for m in group),
                flops=sum(m.flops for m in group),
                redundant_flops=sum(m.redundant_flops for m in group),
                kernel=kernel,
                out_nbytes=out_nbytes,
                priority=max(m.priority for m in group),
                kind=COARSE_KIND,
            ))

        for task in graph:
            if task.key in group_of:
                continue
            packed_producers = {
                group_of[f.producer] for f in task.inputs
                if f.producer in group_of
            }
            if not packed_producers:
                new_tasks.append(task)
                continue
            cid = ("t", task.key)
            inputs = tuple(
                f for f in task.inputs if f.producer not in group_of
            ) + tuple(
                packed_flow(pgid, cid)
                for pgid in sorted(packed_producers, key=sort_key)
            )
            kernel = task.kernel
            if kernel is not None:
                kernel = UnpackKernel(kernel)
            new_tasks.append(clone_task(task, inputs=inputs, kernel=kernel))

        rewritten = rebuild_graph(new_tasks)
        notes = {
            "super_tasks": len(members),
            "members": len(group_of),
            "factor": self.factor,
        }
        return with_graph(build, rewritten), notes
