"""A node buffer's dead half goes back to the OS after its last reader.

Of a solve's ``T`` sweeps the last reads half ``(T - 1) % 2`` of each
node buffer and writes the result grid, so half ``T % 2`` is dead once
every sweep ``T - 2`` task of the block has returned.  The last of them
hands its pages back (``StencilKernels._release``).  These tests pin
when that happens -- never while a task of the block may still read the
half, on every backend, granularity and rewrite, with a delayed task on
the paper's graph -- and what it buys: the last sweep of a ``threads``
solve has one half of its buffer resident, not two.
"""

from __future__ import annotations

import mmap
import sys
import threading

import numpy as np
import pytest

from repro.chaos import ChaosContext, FaultInjector, parse_plan
from repro.core import dataflow
from repro.core.base_parsec import build_base_graph
from repro.core.dataflow import StencilKernels
from repro.core.runner import run
from repro.exec import fork_available
from repro.exec.executor import ThreadedExecutor
from repro.machine.machine import nacl

from .conftest import random_problem

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
pytestmark = pytest.mark.timeout(300)


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


class ReleaseSpy:
    """Patches the kernels' class (so forked node processes inherit it):
    records which sweep ``T - 2`` tasks of each build returned and which
    one the current thread is running, and fails the release -- and so
    the run, in whichever process it happens -- unless it comes from the
    last such task of its block, every other one having returned.  The
    releases are counted in shared memory, which node processes write
    too."""

    def __init__(self, monkeypatch) -> None:
        self.running = threading.local()
        self.returned: dict[int, set] = {}
        self._count = np.ndarray(1, dtype=np.int64, buffer=mmap.mmap(-1, 8))
        self._count[0] = 0
        stencil_task, release = StencilKernels.stencil_task, StencilKernels._release
        spy = self

        def spied_task(kernels, inputs, task):
            previous = getattr(spy.running, "key", None)
            spy.running.key = task.key
            try:
                out = stencil_task(kernels, inputs, task)
            finally:
                spy.running.key = previous
            spy.returned.setdefault(id(kernels), set()).add(task.key)
            return out

        def spied_release(kernels, block, half):
            t_dead = kernels.spec.problem.iterations - 2
            readers = {prefix + (t_dead,) for prefix, plan in kernels.plans.items()
                       if any(rect.block == block for rect in plan.cores)}
            current = getattr(spy.running, "key", None)
            early = readers - spy.returned.get(id(kernels), set()) - {current}
            if current not in readers or early or half != (t_dead + 2) % 2:
                raise AssertionError(f"half {half} of block {block} released by {current} "
                                     f"before {sorted(early)} returned")
            spy._count[0] += 1
            return release(kernels, block, half)

        monkeypatch.setattr(StencilKernels, "stencil_task", spied_task)
        monkeypatch.setattr(StencilKernels, "_release", spied_release)

    @property
    def releases(self) -> int:
        return int(self._count[0])


#: case -> (problem, run() knobs, node blocks the executed graph has)
CASES = {
    # the paper's graph: 256 tiles on one node, a delayed tile task
    "sim-delay": (lambda: random_problem(n=1024, iterations=4),
                  dict(impl="base-parsec", machine=nacl(1), tile=64, backend="sim",
                       plan="delay:node=0,secs=0.25"), 1),
    "sim-delay-step2": (lambda: random_problem(n=1024, iterations=4),
                        dict(impl="base-parsec", machine=nacl(1), tile=64, backend="sim",
                             plan="delay:node=0,step=2,secs=0.25"), 1),
    # one node block cut into row slabs, two workers sharing each sweep
    "threads-slabs": (lambda: random_problem(n=1024, iterations=5),
                      dict(impl="base-parsec", machine=nacl(1), tile=64, backend="threads",
                           jobs=2), 1),
    # a slab per tile row (16 a part) on more workers than this host has cores
    "threads-16-slabs": (lambda: random_problem(n=1024, iterations=5),
                         dict(impl="base-parsec", machine=nacl(1), tile=64,
                              backend="threads", jobs=4, slab_cells=1), 1),
    "processes": (lambda: random_problem(n=256, iterations=6),
                  dict(impl="base-parsec", machine=nacl(2), tile=32, backend="processes"), 2),
    "ca-steps3": (lambda: random_problem(n=256, iterations=7),
                  dict(impl="ca-parsec", steps=3, machine=nacl(4), tile=32, backend="sim"), 4),
    "fuse-coarsen": (lambda: random_problem(n=512, iterations=6),
                     dict(impl="base-parsec", machine=nacl(4), tile=32, backend="threads",
                          jobs=2, passes="fuse,coarsen"), 1),
}


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=needs_fork) if case == "processes" else case for case in CASES])
def test_a_half_goes_only_after_every_task_that_reads_it_returned(
        fast_switching, monkeypatch, case):
    make_problem, knobs, blocks = CASES[case]
    problem, knobs = make_problem(), dict(knobs)
    plan = knobs.pop("plan", None)
    if "slab_cells" in knobs:
        monkeypatch.setattr(dataflow, "SLAB_CELLS", knobs.pop("slab_cells"))
        monkeypatch.setattr(dataflow, "TEMPLATES", dataflow._TemplateCache(0))
    chaos = ChaosContext(FaultInjector(parse_plan(plan))) if plan else None
    spy = ReleaseSpy(monkeypatch)
    result = run(problem, mode="execute", chaos=chaos, **knobs)
    assert np.array_equal(result.grid, problem.reference_solution())
    assert spy.releases == blocks  # one per node block, and each in time


# -- what it buys -------------------------------------------------------------


def resident_bytes(address: int) -> tuple[tuple[int, int], int]:
    """The address range and ``Rss`` of the mapping holding ``address``,
    from ``/proc/self/smaps``."""
    span = None
    with open("/proc/self/smaps") as fh:
        for line in fh:
            head = line.split()
            if len(head) >= 5 and "-" in head[0] and not head[0].endswith(":"):
                lo, hi = (int(x, 16) for x in head[0].split("-"))
                span = (lo, hi) if lo <= address < hi else None
            elif span is not None and head[0] == "Rss:":
                return span, int(head[1]) * 1024
    raise AssertionError(f"no mapping holds {address:#x}")


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/smaps")
def test_the_last_sweep_of_a_threads_solve_holds_one_half_of_its_buffer(monkeypatch):
    """1024^2 on ``threads``: one node buffer of two 8 MiB halves.  As
    each last-sweep task starts, the buffer's mapping has at most one
    half (and the two pages it may share with the other) resident."""
    problem = random_problem(n=1024, iterations=6)
    measured = []
    stencil_task = StencilKernels.stencil_task

    def measuring(kernels, inputs, task):
        if task.key[-1] + 1 == problem.iterations:
            (halves,) = kernels.buffers.values()
            span, rss = resident_bytes(halves.ctypes.data)
            assert span[0] == halves.ctypes.data and span[1] - span[0] >= halves.nbytes
            assert span[1] - span[0] < halves.nbytes + mmap.PAGESIZE  # the buffer alone
            measured.append((rss, halves[0].nbytes))
        return stencil_task(kernels, inputs, task)

    monkeypatch.setattr(StencilKernels, "stencil_task", measuring)
    result = run(problem, nacl(1), impl="base-parsec", tile=64, backend="threads", jobs=2)
    assert np.array_equal(result.grid, problem.reference_solution())
    assert len(measured) == 2  # the last sweep's two row slabs
    for rss, half in measured:
        assert rss <= half + 2 * mmap.PAGESIZE, (rss, half)


def test_a_build_rerun_after_a_cancel_past_the_release_is_bit_identical(monkeypatch):
    """A run that released a half and was stopped in its last sweep
    leaves the buffer behind; a new run of the same build counts its
    readers afresh on a fresh buffer."""
    problem = random_problem(n=256, iterations=5)
    built = build_base_graph(problem, nacl(1), tile=32)
    kernels = next(iter(built.graph)).kernel.__self__
    allocated = []
    allocate = StencilKernels._allocate
    monkeypatch.setattr(StencilKernels, "_allocate",
                        lambda self, block: allocated.append(block) or allocate(self, block))
    last = [task for task in built.graph if task.key[-1] == problem.iterations - 1]

    def failing(inputs, task):
        raise RuntimeError("stopped in the last sweep")

    plain = {task.key: task.kernel for task in last}
    for task in last:
        task.kernel = failing
    with pytest.raises(Exception):
        ThreadedExecutor(built.graph, jobs=1).run(timeout=60)
    assert kernels._released == {(0, 0)} and allocated == [(0, 0)]
    for task in last:
        task.kernel = plain[task.key]
    report = ThreadedExecutor(built.graph, jobs=1).run(timeout=60)
    assert np.array_equal(built.assemble_grid(report.results), problem.reference_solution())
    assert allocated == [(0, 0), (0, 0)]


def test_a_release_touches_no_page_the_live_half_shares():
    """Rounded inward to whole pages: every cell of the live half, and
    the dead half's cells on a page it shares, keep their values; the
    rest of the dead half reads as zeros."""
    problem = random_problem(n=300, iterations=4)
    built = build_base_graph(problem, nacl(1), tile=100)
    kernels = next(iter(built.graph)).kernel.__self__
    halves = kernels._halves((0, 0))
    size, page = halves[0].nbytes, mmap.PAGESIZE
    assert size % page  # the halves share a page
    for dead in (0, 1):
        halves[...] = 7.0
        kernels._release((0, 0), dead)
        assert np.all(halves[1 - dead] == 7.0)
        # the whole pages of the dead half, in its own cells
        first = (-(-dead * size // page) * page - dead * size) // halves.itemsize
        last = ((dead + 1) * size // page * page - dead * size) // halves.itemsize
        flat = halves[dead].reshape(-1)
        assert last - first > 0 and not flat[first:last].any()
        assert np.all(flat[:first] == 7.0) and np.all(flat[last:] == 7.0)
