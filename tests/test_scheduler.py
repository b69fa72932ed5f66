"""Ready-queue policies."""

import pytest

from repro.runtime.scheduler import (
    POLICIES,
    FifoQueue,
    LifoQueue,
    PriorityQueue,
    ReadyQueue,
    make_queue,
)
from repro.runtime.task import Task


def tasks(*priorities):
    return [Task(f"t{i}", node=0, priority=p) for i, p in enumerate(priorities)]


def test_fifo_order():
    q = FifoQueue()
    ts = tasks(0, 0, 0)
    for t in ts:
        q.push(t)
    assert [q.pop() for _ in range(3)] == ts


def test_lifo_order():
    q = LifoQueue()
    ts = tasks(0, 0, 0)
    for t in ts:
        q.push(t)
    assert [q.pop() for _ in range(3)] == ts[::-1]


def test_priority_order_highest_first():
    q = PriorityQueue()
    ts = tasks(1, 5, 3)
    for t in ts:
        q.push(t)
    assert [q.pop().priority for _ in range(3)] == [5, 3, 1]


def test_priority_fifo_among_equals():
    q = PriorityQueue()
    ts = tasks(2, 2, 2)
    for t in ts:
        q.push(t)
    assert [q.pop() for _ in range(3)] == ts


def test_lengths():
    for q in (FifoQueue(), LifoQueue(), PriorityQueue()):
        assert len(q) == 0
        q.push(Task("a", node=0))
        assert len(q) == 1
        q.pop()
        assert len(q) == 0


def test_make_queue():
    assert isinstance(make_queue("fifo"), FifoQueue)
    assert isinstance(make_queue("PRIORITY"), PriorityQueue)
    with pytest.raises(ValueError, match="unknown policy 'random'.*'fifo', 'lifo', 'priority'"):
        make_queue("random")


def test_protocol_is_push_pop_len():
    """One queue per node, popped by whoever is idle: nothing takes a
    task from "another worker's" queue, so there is no third way out."""
    def public(cls):
        return {name for name in vars(cls) if not name.startswith("_")}

    assert public(ReadyQueue) == {"push", "pop"}
    for queue_class in POLICIES.values():
        assert public(queue_class) == {"push", "pop"}
        assert callable(queue_class.__len__)
