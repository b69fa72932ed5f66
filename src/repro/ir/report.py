"""Machine-checkable before/after evidence of a rewrite.

A :class:`PassReport` records what the pass did to the graph --
task/edge/message/byte counts and flop totals before and after, the
invariants verified, plus the pass's own notes -- and exposes the
deltas the CLI and the benchmarks assert on (``messages saved``, tasks
removed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from ..runtime.graph import TaskGraph


@dataclass(frozen=True)
class GraphStats:
    """One graph's static footprint, as censused."""

    tasks: int
    local_edges: int
    local_bytes: int
    remote_messages: int
    remote_bytes: int
    useful_flops: float
    redundant_flops: float

    @classmethod
    def of(cls, graph: TaskGraph) -> "GraphStats":
        census = graph.census()
        useful, redundant = graph.total_flops()
        return cls(
            tasks=len(graph),
            local_edges=census.local_edges,
            local_bytes=census.local_bytes,
            remote_messages=census.remote_messages,
            remote_bytes=census.remote_bytes,
            useful_flops=useful,
            redundant_flops=redundant,
        )


@dataclass(frozen=True)
class PassReport:
    """What one pass did, with its invariant verdicts."""

    name: str
    spec: str
    before: GraphStats
    after: GraphStats
    #: invariant name -> verified (``apply_pass`` raises on any False,
    #: so a surviving report is all-True; kept explicit for the docs'
    #: machine-checkable contract).
    invariants: dict[str, bool] = field(default_factory=dict)
    notes: dict[str, Any] = field(default_factory=dict)
    #: Wall time ``apply_pass`` spent applying and verifying the pass --
    #: the raw material of the lifecycle ``ir_passes`` span.
    elapsed_s: float = 0.0

    @property
    def tasks_removed(self) -> int:
        return self.before.tasks - self.after.tasks

    @property
    def messages_saved(self) -> int:
        return self.before.remote_messages - self.after.remote_messages

    def format(self) -> str:
        b, a = self.before, self.after
        lines = [
            f"pass {self.spec}: tasks {b.tasks} -> {a.tasks}, "
            f"messages saved {self.messages_saved} "
            f"({b.remote_messages} -> {a.remote_messages} msgs, "
            f"{b.remote_bytes} -> {a.remote_bytes} B), "
            f"local edges {b.local_edges} -> {a.local_edges}",
        ]
        if self.notes:
            rendered = "  ".join(f"{k}={v}" for k, v in sorted(self.notes.items()))
            lines.append(f"  notes: {rendered}")
        checked = " ".join(
            f"{name}={'ok' if ok else 'VIOLATED'}"
            for name, ok in sorted(self.invariants.items())
        )
        if checked:
            lines.append(f"  invariants: {checked}")
        return "\n".join(lines)

