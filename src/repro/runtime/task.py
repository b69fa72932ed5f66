"""Task and dataflow-edge descriptions.

A :class:`Task` is the unit the engine schedules: it lives on one node,
consumes tagged outputs of other tasks (:class:`Flow` edges), optionally
runs a real kernel, and is charged a modelled duration on the virtual
clock.  Tags let one producer feed different data to different
consumers (e.g. its north ghost strip to the tile above, its south
strip to the tile below), exactly like PaRSEC's named flows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping, NamedTuple

#: Task keys are arbitrary hashables; stencil builders use tuples like
#: ``("st", tx, ty, it)``.
TaskKey = Hashable

#: The payload of a flow whose data already sits where its consumer
#: reads it (a stencil tile's cells, or a strip its producer wrote into
#: the consumer's landing slot): the flow only orders the two tasks.
#: Between node processes it travels as a header-only *ready* record.
READY = "ready"

#: A kernel receives {(producer_key, tag): payload} for its inputs plus
#: the task itself, and returns {tag: payload} for its outputs.
Kernel = Callable[[Mapping[tuple[TaskKey, str], Any], "Task"], Mapping[str, Any]]


class _FlowFields(NamedTuple):
    producer: TaskKey
    tag: str
    nbytes: int = 0
    parts: tuple[tuple[str, int], ...] = ()


class Flow(_FlowFields):
    """One incoming dataflow edge: *this* task consumes output ``tag``
    of ``producer``.  Immutable, and a tuple underneath: a stencil
    graph makes one per declared edge, so construction is kept cheap.

    Parameters
    ----------
    producer:
        Key of the producing task.
    tag:
        Which named output of the producer to consume.
    nbytes:
        Payload size in bytes.  Drives message timing and the byte
        census; for zero-byte control edges (pure ordering, no
        payload) only the per-message software overhead is charged when
        the edge crosses nodes.
    parts:
        ``(tag, nbytes)`` of each message of the plan this flow stands
        for, when more than one (their payload is :data:`READY`: they
        sit where the consumer reads them); empty, it is one message.
    """

    __slots__ = ()

    def __new__(cls, producer: TaskKey, tag: str, nbytes: int = 0,
                parts: tuple[tuple[str, int], ...] = ()) -> "Flow":
        if nbytes < 0:
            raise ValueError("flow payload size cannot be negative")
        return tuple.__new__(cls, (producer, tag, nbytes, parts))

    @property
    def messages(self) -> tuple[tuple[str, int], ...]:
        """``(tag, nbytes)`` of every plan message this flow stands for."""
        return self.parts or ((self.tag, self.nbytes),)


class Task:
    """One schedulable task.

    Attributes
    ----------
    key:
        Unique hashable identity within the graph.
    node:
        Rank of the node the task executes on.
    inputs:
        Incoming :class:`Flow` edges.
    cost:
        Modelled kernel duration in seconds (excludes the per-task
        runtime overhead, which the engine charges from the node spec).
    flops:
        Useful floating-point work, for GFLOP/s accounting.  Redundant
        (communication-avoiding) flops are tracked separately so
        reports can distinguish useful from replicated work.
    redundant_flops:
        Replicated work performed to avoid communication (PA1 halo
        updates).  Counted in task cost but not in useful-GFLOP/s.
    kernel:
        Optional real computation.  When the engine runs with
        ``execute=True`` the kernel is invoked with the task's input
        payloads and must return its output payloads by tag.
    out_nbytes:
        Sizes of this task's outputs by tag, used when consumers
        declared a flow without a size and for message accounting.
    priority:
        Larger runs earlier under the priority scheduler.  The stencil
        builders give boundary tiles higher priority so their ghost
        messages enter the network as early as possible.
    kind:
        Free-form label used by traces and Fig.-10-style analysis
        ("interior", "boundary", "spmv", ...).
    """

    __slots__ = (
        "key",
        "node",
        "inputs",
        "cost",
        "flops",
        "redundant_flops",
        "kernel",
        "out_nbytes",
        "priority",
        "kind",
    )

    def __init__(
        self,
        key: TaskKey,
        node: int,
        inputs: tuple[Flow, ...] = (),
        cost: float = 0.0,
        flops: float = 0.0,
        redundant_flops: float = 0.0,
        kernel: Kernel | None = None,
        out_nbytes: Mapping[str, int] | None = None,
        priority: int = 0,
        kind: str = "task",
    ) -> None:
        if node < 0:
            raise ValueError("node rank cannot be negative")
        if cost < 0:
            raise ValueError("task cost cannot be negative")
        if flops < 0 or redundant_flops < 0:
            raise ValueError("flop counts cannot be negative")
        self.key = key
        self.node = node
        self.inputs = tuple(inputs)
        self.cost = float(cost)
        self.flops = float(flops)
        self.redundant_flops = float(redundant_flops)
        self.kernel = kernel
        self.out_nbytes = dict(out_nbytes or {})
        self.priority = priority
        self.kind = kind

    def clone(self, **overrides: Any) -> "Task":
        """A copy with selected attributes replaced (taken as given): its
        own ``out_nbytes``, every immutable part shared.  Validated when
        ``self`` was made, so it goes around ``__init__`` (about 1 us: a
        graph template is bound to a run by cloning its tasks)."""
        new = Task.__new__(Task)
        new.key = self.key
        new.node = self.node
        new.inputs = self.inputs
        new.cost = self.cost
        new.flops = self.flops
        new.redundant_flops = self.redundant_flops
        new.kernel = self.kernel
        new.out_nbytes = dict(self.out_nbytes)
        new.priority = self.priority
        new.kind = self.kind
        for name, value in overrides.items():
            setattr(new, name, value)
        return new

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Task({self.key!r}, node={self.node}, kind={self.kind}, "
            f"cost={self.cost:.3g}, deps={len(self.inputs)})"
        )


@dataclass
class EdgeCensus:
    """Static communication census of a graph: what *must* move,
    independent of scheduling.  This is the ground truth the engine's
    dynamic accounting is tested against."""

    local_edges: int = 0
    local_bytes: int = 0
    remote_messages: int = 0
    remote_bytes: int = 0
    #: messages per (src_node, dst_node) pair
    by_pair: dict = field(default_factory=dict)

    def add_remote(self, src: int, dst: int, nbytes: int) -> None:
        self.remote_messages += 1
        self.remote_bytes += nbytes
        pair = (src, dst)
        msgs, byts = self.by_pair.get(pair, (0, 0))
        self.by_pair[pair] = (msgs + 1, byts + nbytes)

    def add_local(self, nbytes: int) -> None:
        self.local_edges += 1
        self.local_bytes += nbytes
