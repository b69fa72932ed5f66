"""Every node block swept in place in the result grid: the hazard rule, proved.

Every sweep of a stencil build updates its node blocks in place inside
the result grid, and a tile's pads toward another block in place inside
its *landing slots* (``repro.core.dataflow``).  What keeps the tasks of
a sweep independent are *seams*: 1-deep copies of the edge lines of a
task's update, saved after each sweep for the neighbours that read them
one sweep later (or, where a task's own rectangles meet, before its
update).  :func:`check_plans` walks every phase of a build's plans cell
by cell, with the version (the sweep) of the value each grid cell, slot
cell and seam holds, and asserts

* each cell has one writer per sweep;
* no cell written in a sweep is read in that sweep from its array: the
  reader gets it from a seam;
* every seam read was saved for it -- one sweep earlier by the task
  that wrote its cells, or by the reader itself before its update;
* every cell an update reads -- its own cells and its four neighbour
  lines -- holds the previous sweep's value of the right global cell,
  and the task that wrote it runs before the reader;
* a strip is written into its consumer's slot by the producer of a flow
  the consumer waits for, and a slot is rewritten only after every
  task that used it (read it, swept it, saved a seam from it) ended;
* a task that overwrites a grid cell or a seam slot another task read
  one sweep earlier waits for that task.

Orderings are reachability in the graph.  It runs under hypothesis over
ragged shapes, process grids (corner blocks on 2 x 2), step sizes (base
1-deep slots, CA s-deep pads swept in place) and row slabs at both
granularities; the span tests below then run builds on real threads
and node processes with a 10 us switch interval and check that no cell,
slot or seam is written while a task that reads it still runs.
"""

from __future__ import annotations

import mmap
import sys
import time
from contextlib import contextmanager

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings

from repro.core import dataflow
from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.dataflow import StencilKernels
from repro.distgrid.partition import ProcessGrid
from repro.exec import fork_available
from repro.exec.executor import ThreadedExecutor
from repro.exec.procs import ProcessExecutor
from repro.machine.machine import nacl
from repro.runtime.report import RunCancelled

from .conftest import random_problem, run_on_thread

needs_fork = pytest.mark.skipif(not fork_available(), reason="needs POSIX fork")
pytestmark = pytest.mark.timeout(300)

#: the version of a Dirichlet cell: right at every sweep
FRAME = 1 << 30


def build(problem, procs, tile, steps=1, pgrid=None):
    if steps == 1:
        return build_base_graph(problem, nacl(procs), tile=tile, pgrid=pgrid)
    return build_ca_graph(problem, nacl(procs), tile=tile, steps=steps, pgrid=pgrid)


@contextmanager
def slab_cells(cells):
    """Row slabs of ``cells`` cells; a template holds the lowered
    graph, so the builds inside start cold."""
    saved = dataflow.SLAB_CELLS
    dataflow.SLAB_CELLS = cells
    dataflow.TEMPLATES.clear()
    try:
        yield
    finally:
        dataflow.SLAB_CELLS = saved
        dataflow.TEMPLATES.clear()


def check_plans(built) -> list[tuple]:
    """Walk ``built``'s plans sweep by sweep (see the module docstring)
    and return the ``(reader key, writer key)`` pairs of tasks the
    writer of which must start after the reader ended: it overwrites a
    cell, a landing slot or a seam slot the reader used."""
    kernels, spec, graph = built.kernels, built.spec, built.graph
    plans, steps, T = kernels.plans, spec.steps, spec.problem.iterations
    nrows, ncols = spec.problem.shape
    ids = {prefix: k for k, prefix in enumerate(plans)}
    prefixes = list(plans)
    above = ancestors(graph)
    blocks = {plan.block for plan in plans.values()}
    arrays = spec.landing()[1]
    # Every array a sweep touches, by (array, slot): the grid is
    # (None, 0), a landing array k has (k, 0) and (k, 1).
    shape = {(None, 0): (nrows, ncols)}
    for k, landing in enumerate(arrays):
        shape[k, 0] = shape[k, 1] = landing.shape
    coords, version = {}, {}
    for where, (h, w) in shape.items():
        r, c = kernels.origin[where[0]]
        rows, cols = np.indices((h, w))
        coords[where] = np.stack([rows + r, cols + c], -1)
        version[where] = np.full((h, w), -2)
    cells = {b: kernels.seam_cells.get(b, 0) for b in blocks}
    seam_version = {b: np.full((2, cells[b]), -2) for b in blocks}
    seam_coords = {b: np.full((2, cells[b], 2), -9) for b in blocks}
    seam_saver = {b: np.full((2, cells[b]), -1) for b in blocks}  # prefix ids
    seam_sweep = {b: np.full((2, cells[b]), -9) for b in blocks}
    seam_own = {b: np.zeros((2, cells[b]), dtype=bool) for b in blocks}
    cut_log: dict = {}  # (producer prefix, sweep, tag) -> (array, dest)
    slot_writer = {where: np.full(shape[where], -1) for where in shape if where[0] is not None}
    slot_written = {where: np.full(shape[where], -9) for where in shape if where[0] is not None}
    slot_uses: dict = {where: [] for where in shape if where[0] is not None}
    pairs: list[tuple] = []
    reads_before: list = []  # (reader prefix, where, index): the previous sweep's array reads
    writer_before: dict = {}

    def key(prefix, t):
        return prefix + (t,)

    def after(first, second):
        """Task ``second`` starts after ``first`` ended: the graph
        orders them (directly or through other tasks)."""
        if first == second:
            return
        assert above[second] >> index_of[first] & 1, f"{second} may run before {first} ends"

    def war(reader_prefix, t_r, writer_prefix, t_w):
        """The writer overwrites what the reader used: it waits for it."""
        if reader_prefix == writer_prefix:
            return
        after(key(reader_prefix, t_r), key(writer_prefix, t_w))
        pairs.append((key(reader_prefix, t_r), key(writer_prefix, t_w)))

    def used(where, index, prefix, t):
        """A landing slot's cells used at sweep ``t``: after their
        producer's write, and before the next one."""
        if where[0] is None:
            return
        cutters = zip(np.ravel(slot_writer[where][index]), np.ravel(slot_written[where][index]))
        for w, tw in set(cutters):
            assert w >= 0, f"{prefix} at {t} uses a slot nobody wrote"
            after(key(prefixes[w], tw), key(prefix, t))
        slot_uses[where].append((prefix, t, index))

    index_of = {k: n for n, k in enumerate(graph.tasks)}

    def where_of(array, t):
        return (array, 0) if array is None else (array, (t // steps) % 2)

    def save(prefix, saves, t, writer, own):
        b = plans[prefix].block
        for array, cells_, seam in saves:
            where = where_of(array, t)
            # a seam: cells it wrote; its own: cells no other task writes
            assert (np.isin(writer[where][cells_], (ids[prefix], -1 if own else ids[prefix]))
                    .all()), f"{prefix} at {t} saves cells it does not write"
            slot = t % 2
            assert (seam_sweep[b][slot, seam] != t).all(), f"{prefix} at {t}: seams collide"
            seam_version[b][slot, seam] = version[where][cells_]
            seam_coords[b][slot, seam] = coords[where][cells_]
            seam_saver[b][slot, seam] = ids[prefix]
            seam_sweep[b][slot, seam] = t
            seam_own[b][slot, seam] = own
            used(where, cells_, prefix, t)

    def cut(prefix, cuts, t):
        for tag, source, array, dest in cuts:
            if source is None:
                continue
            assert (version[None, 0][source] == t).all(), f"{prefix} at {t} cuts stale cells"
            where = (array, ((t + 1) // steps) % 2)
            assert (coords[where][dest] == coords[None, 0][source]).all()
            for reader, t_r, index in slot_uses[where]:
                mask = np.zeros(shape[where], dtype=bool)
                mask[index] = True
                if mask[dest].any():
                    war(reader, t_r, prefix, t)
            slot_uses[where] = [use for use in slot_uses[where]
                                if not _within(use[2], dest, shape[where])]
            version[where][dest] = version[None, 0][source]
            slot_writer[where][dest] = ids[prefix]
            slot_written[where][dest] = t
            cut_log[(prefix, t, tag)] = (array, dest)

    for t in range(-1, T):
        writer = {where: np.full(shape[where], -1) for where in shape}
        if t == -1:
            for prefix, plan in plans.items():
                for rect in plan.cores:
                    assert rect.array is None
                    assert (writer[None, 0][rect.rows, rect.cols] == -1).all()
                    writer[None, 0][rect.rows, rect.cols] = ids[prefix]
                    version[None, 0][rect.rows, rect.cols] = -1
            if T:
                for prefix, plan in plans.items():
                    save(prefix, plan.phases[-1].saves, t, writer, False)
                    cut(prefix, plan.phases[-1].cuts, t)
            writer_before, reads_before = writer, []
            continue
        last = t + 1 == T
        phase_of = {prefix: plan.phases[t % steps] for prefix, plan in plans.items()}
        sweeps = {prefix: tuple(s for s in phase_of[prefix].update
                                if not last or s.rect.array is None)
                  for prefix in plans}
        # Every rectangle has one writer.
        for prefix, swept in sweeps.items():
            for sweep in swept:
                where = where_of(sweep.rect.array, t)
                rows, cols = sweep.rect.rows, sweep.rect.cols
                assert (writer[where][rows, cols] == -1).all(), f"two writers at {t}: {sweep.rect}"
                writer[where][rows, cols] = ids[prefix]
        # Landed strips: marked ready by their producer one sweep earlier.
        for prefix, phase in phase_of.items():
            for copy in phase.copies:
                assert cut_log.get((copy.producer, t - 1, copy.tag)) == (copy.array, copy.dest), (
                    f"{prefix} at {t} reads an unwritten {copy.tag}")
                # ... on a flow from its producer that stands for its message
                assert any(producer == copy.producer and copy.tag in dict(parts)
                           for producer, _flow, _nbytes, parts in phase.edges)
            flows = {(flow.producer, flow.tag): flow for flow in graph[key(prefix, t)].inputs}
            for producer, flow, _nbytes, parts in phase.edges:
                assert flows[key(producer, t - 1), flow].messages == parts
        # What each task copies of its own cells before it updates them.
        for prefix, phase in phase_of.items():
            save(prefix, phase.own, t, writer, True)
        reads = []
        for prefix, swept in sweeps.items():
            b = plans[prefix].block
            for sweep in swept:
                where = where_of(sweep.rect.array, t)
                rows, cols = sweep.rect.rows, sweep.rect.cols
                assert (version[where][rows, cols] == t - 1).all(), (prefix, t, sweep.rect)
                used(where, (rows, cols), prefix, t)
                g = coords[where][rows, cols]
                r0, c0 = g[0, 0]
                r1, c1 = g[-1, -1] + 1
                expected = (line_coords(r0 - 1, range(c0, c1), 0),
                            line_coords(r1, range(c0, c1), 0),
                            line_coords(c0 - 1, range(r0, r1), 1),
                            line_coords(c1, range(r0, r1), 1))
                for side, pieces in enumerate(sweep.lines):
                    got_v, got_c = [], []
                    for kind, array, index in pieces:
                        if kind == "array":
                            there = where_of(array, t)
                            assert (writer[there][index] == -1).all(), (
                                f"{prefix} reads at {t} from the array cells "
                                f"{index} a task writes then")
                            got_v.append(version[there][index])
                            got_c.append(coords[there][index])
                            reads.append((prefix, there, index))
                            used(there, index, prefix, t)
                            if there[0] is None:  # after the tasks that wrote them
                                for w in np.unique(writer_before[there][index]):
                                    after(key(prefixes[w], t - 1), key(prefix, t))
                        elif kind in ("seam", "own"):
                            slot = (t - 1) % 2 if kind == "seam" else t % 2
                            assert (seam_sweep[b][slot, index] == t - (kind == "seam")).all(), (
                                f"{prefix} at {t} reads a {kind} not saved for it")
                            assert (seam_own[b][slot, index] == (kind == "own")).all()
                            got_v.append(seam_version[b][slot, index])
                            got_c.append(seam_coords[b][slot, index])
                            savers = np.unique(seam_saver[b][slot, index])
                            if kind == "own":
                                assert list(savers) == [ids[prefix]]
                                continue
                            for w in savers:
                                after(key(prefixes[w], t - 1), key(prefix, t))
                                # The saver's next sweep rewrites its seams
                                # (this slot, or the other one first).
                                if t + 1 < T:
                                    war(prefix, t, prefixes[w], t + 1)
                        else:
                            start = expected[side][0, 1 - side // 2]
                            line = expected[side][index.start - start:index.stop - start]
                            got_c.append(line)
                            got_v.append(np.full(len(line), FRAME))
                    got_v, got_c = np.concatenate(got_v), np.concatenate(got_c)
                    assert (got_c == expected[side]).all(), (prefix, t, side, sweep.rect)
                    inside = ((got_c[:, 0] >= 0) & (got_c[:, 0] < nrows)
                              & (got_c[:, 1] >= 0) & (got_c[:, 1] < ncols))
                    assert (got_v[inside] == t - 1).all(), (prefix, t, side, pieces)
                    assert (got_v[~inside] == FRAME).all()
        # Across sweeps: a cell the previous sweep read from an array is
        # overwritten in place only after its reader returned.
        for reader, where, index in reads_before:
            for w in np.unique(writer[where][index]):
                if w >= 0:
                    war(reader, t - 1, prefixes[w], t)
        for prefix, swept in sweeps.items():
            for sweep in swept:
                version[where_of(sweep.rect.array, t)][sweep.rect.rows, sweep.rect.cols] = t
        if not last:
            for prefix in plans:
                save(prefix, phase_of[prefix].saves, t, writer, False)
                cut(prefix, phase_of[prefix].cuts, t)
        reads_before, writer_before = reads, writer
    assert (version[None, 0] == T - 1).all()
    return pairs


def _within(index, dest, shape) -> bool:
    """Whether the cells ``index`` names lie inside ``dest``."""
    mask = np.zeros(shape, dtype=bool)
    mask[index] = True
    mask[dest] = False
    return not mask.any()


def ancestors(graph) -> dict:
    """Task key -> a bitset (an int over ``graph.tasks``' order) of
    every task the graph runs before it."""
    index_of = {key: n for n, key in enumerate(graph.tasks)}
    above: dict = {}
    for key in graph.topological_order():
        bits = 0
        for flow in graph[key].inputs:
            bits |= above[flow.producer] | 1 << index_of[flow.producer]
        above[key] = bits
    return above


def line_coords(fixed, span, axis):
    """Global coordinates of a neighbour line: row ``fixed`` over
    ``span`` columns (``axis`` 0), or column ``fixed`` over ``span``
    rows."""
    run = np.arange(span.start, span.stop)
    if axis == 0:
        return np.stack([np.full(len(run), fixed), run], -1)
    return np.stack([run, np.full(len(run), fixed)], -1)


# -- the rule, at plan time -------------------------------------------------------


@st.composite
def geometries(draw):
    nrows, ncols = draw(st.integers(1, 26)), draw(st.integers(1, 26))
    pgrid = draw(st.sampled_from([None, None, ProcessGrid(2, 2), ProcessGrid(1, 3),
                                  ProcessGrid(3, 1)]))
    procs = pgrid.size if pgrid else draw(st.integers(1, 4))
    tile = draw(st.integers(1, 9))
    steps = draw(st.integers(1, 4))
    iterations = draw(st.integers(1, 4 + steps))
    return nrows, ncols, procs, pgrid, tile, steps, iterations


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(geometries(), st.booleans(), st.booleans())
def test_every_plan_keeps_the_hazard_rule(geometry, per_tile, small_slabs):
    nrows, ncols, procs, pgrid, tile, steps, iterations = geometry
    problem = random_problem(nrows, iterations, ncols=ncols)
    with slab_cells(1 if small_slabs else dataflow.SLAB_CELLS):
        try:
            built = build(problem, procs, tile, steps, pgrid)
        except ValueError:  # a step deeper than a tile, more nodes than tiles
            assume(False)
        check_plans(built.per_tile() if per_tile else built)


@pytest.mark.parametrize("steps", [1, 2, 3])
def test_the_benchmark_like_geometries_keep_the_hazard_rule(steps):
    """A 2 x 2 process grid of ragged blocks, slabbed, at both
    granularities."""
    problem = random_problem(29, 2 * steps + 1, ncols=38)
    with slab_cells(1):
        built = build(problem, 4, 5, steps, ProcessGrid(2, 2))
        assert check_plans(built) and check_plans(built.per_tile())


# -- the rule, on real threads and processes ------------------------------------------


@pytest.fixture
def fast_switching():
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    yield
    sys.setswitchinterval(interval)


class SpanLog:
    """Start and end of every stencil task body, by task key, in shared
    memory (forked node processes write it too).  Patches the kernels'
    class, so composites and node processes are covered."""

    def __init__(self, monkeypatch, keys) -> None:
        self.index = {key: k for k, key in enumerate(keys)}
        self.spans = np.ndarray((len(keys), 2), buffer=mmap.mmap(-1, len(keys) * 16))
        self.spans[...] = np.nan
        for name in ("init_task", "stencil_task"):
            monkeypatch.setattr(StencilKernels, name, self._timed(getattr(StencilKernels, name)))

    def _timed(self, body):
        log = self

        def timed(kernels, inputs, task):
            start = time.perf_counter()
            try:
                return body(kernels, inputs, task)
            finally:
                row = log.spans[log.index[task.key]]
                row[0], row[1] = start, time.perf_counter()

        return timed

    def check(self, pairs) -> None:
        """Each writer started after the reader it must wait for ended."""
        assert pairs
        for reader, writer in pairs:
            (_, end), (start, _) = self.spans[self.index[reader]], self.spans[self.index[writer]]
            assert end <= start, f"{writer} started while {reader} still read"


#: case -> (problem, procs, tile, steps, how): ``slabs`` cuts every part
#: into a slab per tile row, ``per-tile`` runs the paper's graph
CASES = {
    # one node block cut into row slabs, two workers sharing each sweep
    "threads-slabs": (lambda: random_problem(n=1024, iterations=5), 1, 64, 1, None),
    # a slab per tile row (16 a part) on more workers than this host has cores
    "threads-16-slabs": (lambda: random_problem(n=1024, iterations=5), 1, 64, 1, "slabs"),
    "threads-ca-slabs": (lambda: random_problem(n=96, ncols=80, iterations=7), 4, 8, 3,
                         "slabs"),
    "ca-steps3": (lambda: random_problem(n=64, iterations=7), 4, 8, 3, "per-tile"),
    "per-tile": (lambda: random_problem(n=64, iterations=6), 4, 8, 2, "per-tile"),
    "processes": (lambda: random_problem(n=96, ncols=80, iterations=7), 4, 8, 3,
                  "processes"),
    # base's 1-deep landing slots on a 2 x 2 process grid, a slab per tile row
    "processes-base": (lambda: random_problem(n=64, ncols=48, iterations=9), 4, 8, 1,
                       "processes"),
}


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=needs_fork) if case.startswith("processes") else case
    for case in CASES])
def test_no_cell_is_written_while_a_task_may_still_read_it(fast_switching, monkeypatch, case):
    make_problem, procs, tile, steps, how = CASES[case]
    problem = make_problem()
    truth = problem.reference_solution()
    with slab_cells(1 if how in ("slabs", "processes") else dataflow.SLAB_CELLS):
        built = build(problem, procs, tile, steps)
        if how == "per-tile":
            built = built.per_tile()
        pairs = check_plans(built)
        log = SpanLog(monkeypatch, list(built.graph.tasks))  # before the builds it times
        for rep in range(3):
            built = build(problem, procs, tile, steps)
            if how == "per-tile":
                built = built.per_tile()
            if how == "processes":
                executor = ProcessExecutor(built.graph, procs=procs, jobs=2)
            else:
                executor = ThreadedExecutor(built.graph, jobs=4 if how else 2)
            report = run_on_thread(executor.run, 120)()
            assert np.array_equal(built.assemble_grid(report.results), truth), rep
            log.check(pairs)


def test_a_build_rerun_after_a_cancel_is_bit_identical(fast_switching, monkeypatch):
    """A run cancelled from inside a mid-run task leaves the array
    half-swept and the seams of two sweeps behind; a new run of the
    same build starts from its initial loads and keeps the rule."""
    problem = random_problem(n=48, iterations=9, seed=6)
    with slab_cells(1):
        first = build(problem, 4, 6, 2)
        pairs = check_plans(first)
        log = SpanLog(monkeypatch, list(first.graph.tasks))
        built = build(problem, 4, 6, 2)
    trigger = built.graph[next(key for key in built.graph.tasks if key[-1] == 5)]
    plain = trigger.kernel

    def cancelling(inputs, task):
        assert executor.cancel()
        return plain(inputs, task)

    trigger.kernel = cancelling
    executor = ThreadedExecutor(built.graph, jobs=3)
    with pytest.raises(RunCancelled):
        run_on_thread(executor.run, 60)()
    trigger.kernel = plain
    log.spans[...] = np.nan
    report = run_on_thread(ThreadedExecutor(built.graph, jobs=3).run, 60)()
    assert np.array_equal(built.assemble_grid(report.results), problem.reference_solution())
    log.check(pairs)
