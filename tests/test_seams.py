"""One array per node block, swept in place: the hazard rule, proved.

Every sweep of a stencil build updates its node block's one array in
place (``repro.core.dataflow``).  What keeps the tasks of a sweep
independent are *seams*: 1-deep copies of the edge lines of a task's
update, saved after each sweep for the neighbours that read them one
sweep later.  :func:`check_plans` walks every phase of a build's plans
cell by cell, with the version (the sweep) of the value each cell,
seam and copy holds, and asserts

* each cell has one writer per sweep, and pastes land in their task's
  own update;
* no cell written in a sweep is read in that sweep from the array: the
  reader gets it from a seam or from a received copy;
* every seam read was saved one sweep earlier by the task that wrote
  its cells;
* every cell an update reads -- its own cells and its four neighbour
  lines -- holds the previous sweep's value of the right global cell;
* a task that overwrites a cell or a seam slot another task read one
  sweep earlier has that task among its direct predecessors.

It runs under hypothesis over ragged shapes, process grids and step
sizes at both granularities; the span tests below then run builds on
real threads and node processes with a 10 us switch interval and check
that no cell or seam is written while a task that reads it still runs.
"""

from __future__ import annotations

import mmap
import queue
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
from repro.exec.futures import RunCancelled
from repro.exec.procs import ProcessExecutor
from repro.ir import PassContext, PassManager, parse_pipeline
from repro.machine.machine import nacl

from .conftest import random_problem

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
    cell or a seam slot the reader read one sweep earlier."""
    kernels, spec, graph = built.kernels, built.spec, built.graph
    plans, steps, T = kernels.plans, spec.steps, spec.problem.iterations
    nrows, ncols = spec.problem.shape
    ids = {prefix: k for k, prefix in enumerate(plans)}
    blocks = {plan.cores[0].block for plan in plans.values()}
    shape = {b: spec.problem.shape if kernels.in_grid else spec.buffers()[b].shape
             for b in blocks}
    coords, version = {}, {}
    for b in blocks:
        rows, cols = np.indices(shape[b])
        coords[b] = np.stack([rows + kernels.base[b][0], cols + kernels.base[b][1]], -1)
        outside = ((coords[b][..., 0] < 0) | (coords[b][..., 0] >= nrows)
                   | (coords[b][..., 1] < 0) | (coords[b][..., 1] >= ncols))
        version[b] = np.where(outside, FRAME, -2)
    cells = {b: kernels.seam_cells.get(b, 0) for b in blocks}
    seam_version = {b: np.full((2, cells[b]), -2) for b in blocks}
    seam_coords = {b: np.full((2, cells[b], 2), -9) for b in blocks}
    seam_saver = {b: np.full((2, cells[b]), -1) for b in blocks}  # prefix ids
    seam_sweep = {b: np.full((2, cells[b]), -9) for b in blocks}
    copies: dict = {}
    grid_writes = np.zeros(spec.problem.shape, dtype=int)
    pairs: list[tuple] = []
    prefixes = list(plans)
    reads_before: list = []  # (reader prefix, block, index): the previous sweep's array reads
    writer_before: dict = {}

    def save_and_cut(prefix, phase, t, writer):
        b = plans[prefix].cores[0].block
        for save in phase.saves:
            assert save.block == b
            assert (writer[b][save.cells] == ids[prefix]).all(), (
                f"{prefix} at {t} saves cells it did not write")
            slot = t % 2
            seam_version[b][slot, save.seam] = version[b][save.cells]
            seam_coords[b][slot, save.seam] = coords[b][save.cells]
            seam_saver[b][slot, save.seam] = ids[prefix]
            seam_sweep[b][slot, save.seam] = t
        for tag, block, source in phase.cuts:
            if source is not None:
                copies[(prefix, t, tag)] = (version[block][source].copy(),
                                            coords[block][source].copy())

    def depends(writer_prefix, t_w, reader_prefix, t_r):
        if writer_prefix == reader_prefix:
            return
        reader, writer = reader_prefix + (t_r,), writer_prefix + (t_w,)
        assert reader in {flow.producer for flow in graph[writer].inputs}, (
            f"{writer} overwrites what {reader} read, without waiting for it")
        pairs.append((reader, writer))

    for t in range(-1, T):
        writer = {b: np.full(shape[b], -1) for b in blocks}
        if t == -1:
            for prefix, plan in plans.items():
                for rect in plan.cores:
                    assert (writer[rect.block][rect.rows, rect.cols] == -1).all()
                    writer[rect.block][rect.rows, rect.cols] = ids[prefix]
                    version[rect.block][rect.rows, rect.cols] = -1
            for prefix, plan in plans.items():
                save_and_cut(prefix, plan.phases[-1], t, writer)
            writer_before, reads_before = writer, []
            continue
        last = t + 1 == T
        to_grid = last and not kernels.in_grid
        phase_of = {prefix: plan.phases[t % steps] for prefix, plan in plans.items()}
        sweeps = {prefix: plan.last if to_grid else phase_of[prefix].update
                  for prefix, plan in plans.items()}
        # Every rectangle has one writer (the result grid, on the last
        # out-of-place sweep).
        for prefix, swept in sweeps.items():
            for sweep in swept:
                b, rows, cols = sweep.rect
                if to_grid:
                    g = coords[b][rows, cols]
                    grid_writes[g[..., 0], g[..., 1]] += 1
                    continue
                assert (writer[b][rows, cols] == -1).all(), f"two writers at {t}: {sweep.rect}"
                writer[b][rows, cols] = ids[prefix]
        # Received copies: the cells they hold, and pastes into the
        # task's own update only.
        for prefix, phase in phase_of.items():
            for copy in phase.copies:
                held = copies.get((copy.producer, t - 1, copy.tag))
                assert held is not None, f"{prefix} at {t} reads an uncut {copy.tag}"
                assert held[0].shape == copy.shape
                assert (held[1] == coords[copy.block][copy.dest]).all()
                if copy.paste is not None and not to_grid:
                    dest, part = copy.paste
                    assert (writer[copy.block][dest] == ids[prefix]).all()
                    version[copy.block][dest] = held[0][part]
        reads = []
        for prefix, swept in sweeps.items():
            for sweep in swept:
                b, rows, cols = sweep.rect
                assert (version[b][rows, cols] == t - 1).all(), (prefix, t, sweep.rect)
                expected = (coords_line(kernels.base[b], rows.start - 1, cols, 0),
                            coords_line(kernels.base[b], rows.stop, cols, 0),
                            coords_line(kernels.base[b], cols.start - 1, rows, 1),
                            coords_line(kernels.base[b], cols.stop, rows, 1))
                for side, pieces in enumerate(sweep.lines):
                    got_v, got_c = [], []
                    for kind, key, index in pieces:
                        if kind == "array":
                            if not to_grid:
                                assert (writer[b][index] == -1).all(), (
                                    f"{prefix} reads at {t} from the array cells "
                                    f"{index} another task writes then")
                            got_v.append(version[b][index])
                            got_c.append(coords[b][index])
                            reads.append((prefix, b, index))
                        elif kind == "seam":
                            slot = (t - 1) % 2
                            assert (seam_sweep[b][slot, index] == t - 1).all(), (
                                f"{prefix} at {t} reads a seam not saved at {t - 1}")
                            got_v.append(seam_version[b][slot, index])
                            got_c.append(seam_coords[b][slot, index])
                            # saved by the task that wrote those cells
                            g = seam_coords[b][slot, index]
                            local = g - np.array(kernels.base[b])
                            savers = seam_saver[b][slot, index]
                            assert (writer_before[b][local[:, 0], local[:, 1]] == savers).all()
                            # The saver's next sweep rewrites its seams
                            # (this slot, or the other one first).
                            if t + 1 < T:
                                for w in np.unique(savers):
                                    depends(prefixes[w], t + 1, prefix, t)
                        elif kind == "copy":  # one this task receives, cut at t - 1
                            assert key in {(c.producer, c.tag) for c in phase_of[prefix].copies}
                            held_v, held_c = copies[(key[0], t - 1, key[1])]
                            got_v.append(held_v[index])
                            got_c.append(held_c[index])
                        else:
                            assert kernels.in_grid  # global coordinates along the line
                            start = (cols if side < 2 else rows).start
                            line = expected[side][index.start - start : index.stop - start]
                            got_c.append(line)
                            got_v.append(np.full(len(line), FRAME))
                    got_v, got_c = np.concatenate(got_v), np.concatenate(got_c)
                    assert (got_c == expected[side]).all(), (prefix, t, side, sweep.rect)
                    inside = ((got_c[:, 0] >= 0) & (got_c[:, 0] < nrows)
                              & (got_c[:, 1] >= 0) & (got_c[:, 1] < ncols))
                    assert (got_v[inside] == t - 1).all(), (prefix, t, side, pieces)
                    assert (got_v[~inside] == FRAME).all()
        # Across sweeps: a cell the previous sweep read from the array
        # is overwritten only after its reader returned.
        for reader, b, index in reads_before:
            for w in np.unique(writer[b][index]):
                if w >= 0:
                    depends(prefixes[w], t, reader, t - 1)
        if not to_grid:
            for prefix, swept in sweeps.items():
                for sweep in swept:
                    version[sweep.rect.block][sweep.rect.rows, sweep.rect.cols] = t
        if not last:
            for prefix in plans:
                save_and_cut(prefix, phase_of[prefix], t, writer)
        reads_before, writer_before = reads, writer
    if T:
        if kernels.in_grid:
            (b,) = blocks
            assert (version[b] == T - 1).all()
        else:
            assert (grid_writes == 1).all()
    return pairs


def coords_line(base, fixed, span, axis):
    """Global coordinates of a neighbour line: row ``fixed`` over
    ``span`` columns (``axis`` 0), or column ``fixed`` over ``span``
    rows, in a block's array coordinates (possibly outside it)."""
    run = np.arange(span.start, span.stop)
    if axis == 0:
        return np.stack([np.full(len(run), fixed + base[0]), run + base[1]], -1)
    return np.stack([run + base[0], np.full(len(run), fixed + base[1])], -1)


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
    "coarsen": (lambda: random_problem(n=96, iterations=6), 4, 8, 1, "coarsen"),
    "processes": (lambda: random_problem(n=96, ncols=80, iterations=7), 4, 8, 3,
                  "processes"),
}


@pytest.mark.parametrize("case", [
    pytest.param(case, marks=needs_fork) if case == "processes" else case for case in CASES])
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
            elif how == "coarsen":
                built, _ = PassManager(parse_pipeline(how)).run(
                    built, PassContext(machine=nacl(procs), with_kernels=True))
            if how == "processes":
                executor = ProcessExecutor(built.graph, procs=procs, jobs=2)
            else:
                executor = ThreadedExecutor(built.graph, jobs=4 if how else 2)
            report = executor.run(timeout=120)
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
    plain, handles = trigger.kernel, queue.Queue()

    def cancelling(inputs, task):
        handles.get(timeout=30).cancel()
        return plain(inputs, task)

    trigger.kernel = cancelling
    handle = ThreadedExecutor(built.graph, jobs=3).start()
    handles.put(handle)
    with pytest.raises(RunCancelled):
        handle.result(timeout=60)
    trigger.kernel = plain
    log.spans[...] = np.nan
    report = ThreadedExecutor(built.graph, jobs=3).run(timeout=60)
    assert np.array_equal(built.assemble_grid(report.results), problem.reference_solution())
    log.check(pairs)
