"""One node-block task's path through the runtime, hop by hop (wall-clock).

    PYTHONPATH=src python benchmarks/task_path.py [serve_mix|kernel_large|halo_base|halo_ca]

Walks the hops `docs/runtime-guide.md` lists on one of the wall-clock
benchmark's geometries, single-threaded, over the graph its backend
executes: one node block for the whole grid on `threads` (`serve_mix`,
`kernel_large`), one per node on `processes` (`halo_*`).  First the build: a shape's
first build (from an empty memo) and the bind every later build pays,
in microseconds per *declared* task -- the paper's graph, one task per
tile and sweep, which is what every earlier version of this table
divided by.  Then, in microseconds per *executed* task -- one node
block's boundary or interior tiles for one sweep, what the real
backends run -- executor `_prepare`, ready queue, `PayloadStore.gather`,
the task body (plan lookup, pastes, banded kernel per rectangle, cuts;
for the last sweep the kernel writing the cores into the result grid),
`publish`/`release` and the worker's per-task record.  Each figure is
the median over the solve's tasks (over the last sweep's for "last
sweep into grid"), taken three times, best kept.  On the multi-node
geometries it also walks the `processes` backend's two hops per
*message*: "ring write" (encode the record, copy it into the
destination's shared-memory ring, post the doorbell) and "ring drain"
(take the ring lock, copy the record out into a private array).  The
hops are timed where they are called, one after the other, so the
numbers add up to a `jobs=1` solve without thread hand-offs; they are a
map of where the time goes, not a benchmark.
"""

from __future__ import annotations

import gc
import multiprocessing
import sys
import time
from statistics import median

from repro.core.dataflow import TEMPLATES, build_stencil_graph
from repro.core.spec import StencilSpec
from repro.exec.executor import ThreadedExecutor
from repro.exec.procs import _Channels, _encode, _record_bytes
from repro.exec.wallclock_trace import WallClockRecorder
from repro.machine.machine import nacl
from repro.runtime.scheduler import make_queue
from repro.runtime.store import PayloadStore
from repro.stencil.problem import JacobiProblem

#: The benchmark's geometries (benchmarks/wallclock: batch_workloads.py
#: CONFIGS, serve_workload.py staged()), each with the node count of the
#: graph its backend executes: ``threads`` (serve_mix on the modelled
#: nacl(4), kernel_large) runs the grid as one node block, ``processes``
#: (halo_*) one block per node process.
GEOMETRIES = {
    "serve_mix": dict(n=256, ncols=256, iterations=8, nodes=1, tile=32, steps=1),
    "kernel_large": dict(n=2048, ncols=2048, iterations=16, nodes=1, tile=256, steps=1),
    "halo_base": dict(n=4096, ncols=256, iterations=64, nodes=2, tile=128, steps=1),
    "halo_ca": dict(n=4096, ncols=256, iterations=64, nodes=2, tile=128, steps=4),
}


def clock(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return time.perf_counter() - t0, out


def one_solve(geometry: dict) -> dict[str, float]:
    g = dict(geometry)
    nodes, tile, steps = g.pop("nodes"), g.pop("tile"), g.pop("steps")
    problem = JacobiProblem(init=0.5, **g)
    specs = [StencilSpec.create(problem, nodes=nodes, tile=tile, steps=steps) for _ in range(2)]
    TEMPLATES.clear()
    gc.collect()  # the previous solve's garbage is not this build's cost
    first_s, _ = clock(build_stencil_graph, specs[0], nacl(nodes))
    spec = specs[1]  # a fresh one, as every run() makes: it adopts the geometry
    bind_s, built = clock(build_stencil_graph, spec, nacl(nodes))
    per_declared = 1e6 / (len(spec.exchange_plan()) * problem.iterations)
    hops = {"first build (declared)": first_s * per_declared,
            "bind (declared)": bind_s * per_declared}

    graph, kernels = built.graph, built.kernels
    stencil = [task for task in graph if task.key[-1] >= 0]
    per_task = 1e6 / len(stencil)
    executor = ThreadedExecutor(graph, jobs=1, policy="priority")
    hops["_prepare"] = clock(executor._prepare)[0] * per_task
    ready = make_queue("priority")  # what the executor holds, one per node
    dt_push = clock(lambda: [ready.push(task) for task in stencil])[0]
    dt_pop = clock(lambda: [ready.pop() for _ in stencil])[0]
    hops["ready queue push + pop"] = (dt_push + dt_pop) * per_task

    # The run itself, in graph order (a legal schedule), hop by hop.
    store = PayloadStore(graph, graph.tasks.values())
    recorder = WallClockRecorder(1)
    parts = {name: [] for name in ("gather", "plan lookup", "pastes", "banded kernel", "cuts",
                                   "last sweep into grid", "stencil_task", "publish + release",
                                   "per-task record", "ring write (per message)",
                                   "ring drain (per message)")}
    # What the processes backend lays out before forking (rings only
    # where the plan sends: none on a one-node geometry).
    channels = _Channels(graph, nodes, multiprocessing.get_context("fork"))
    for task in graph:
        dt, inputs = clock(store.gather, task)
        kernel_dt, outputs = clock(task.kernel, inputs, task)
        for index, tag, dst, _nbytes in channels.sends.get(task.key, ()):
            ring = channels.rings[task.node, dst]

            def write():
                fields, body = _encode(index, outputs[tag])
                ring.put(fields, body, _record_bytes(body))
                channels.doorbells[dst].release()

            parts["ring write (per message)"].append(clock(write)[0])
            parts["ring drain (per message)"].append(clock(ring.take)[0])
        post_dt, _ = clock(lambda: (store.publish(task, dict(outputs)), store.release(task)))
        # All a worker writes about a finished task: one lane tuple.
        record_dt, _ = clock(recorder.record, 0, task.kind, 0.0, kernel_dt, task.key, task.key)
        t = task.key[-1]
        if t < 0:
            continue
        parts["gather"].append(dt)
        parts["stencil_task"].append(kernel_dt)
        parts["publish + release"].append(post_dt)
        parts["per-task record"].append(record_dt)
        # The body's pieces again, on the same (now cache-warm) data:
        # every piece is idempotent.
        dt, (plan, phase) = clock(lambda: (
            (p := kernels.plans[task.key[:-1]]), p.phases[t % steps]))
        parts["plan lookup"].append(dt)
        read = t % 2

        def pastes():
            for producer, tag, block, dest, shape, _ in phase.pastes:
                values = inputs[(producer + (t - 1,), tag)]
                if values.shape == shape:
                    kernels._halves(block)[read][dest] = values

        parts["pastes"].append(clock(pastes)[0])
        if t + 1 == problem.iterations:
            def last():
                for rect in plan.finals:
                    rows, cols = kernels._global(rect)
                    kernels._update(rect, read, built.grid[rows, cols])

            parts["last sweep into grid"].append(clock(last)[0])
            continue

        def update():
            for rect in phase.update:
                kernels._update(rect, read, kernels._halves(rect.block)[
                    1 - read, rect.rows, rect.cols])

        parts["banded kernel"].append(clock(update)[0])
        parts["cuts"].append(clock(kernels._cut, phase.cuts, 1 - read)[0])
    channels.close()
    for name, samples in parts.items():
        hops[name] = median(samples) * 1e6 if samples else float("nan")
    hops["executed tasks"] = len(stencil)
    return hops


def main(argv: list[str]) -> None:
    names = argv or list(GEOMETRIES)
    # A process's first solve also pays its imports' and numpy's
    # first-call costs: spend them on a toy shape.
    one_solve(dict(n=64, ncols=64, iterations=2, nodes=4, tile=16, steps=1))
    runs = {name: [one_solve(GEOMETRIES[name]) for _ in range(3)] for name in names}
    print(f"{'us per task':<26}" + "".join(f"{name:>14}" for name in names))
    for hop in runs[names[0]][0]:
        cells = (min(run[hop] for run in runs[name]) for name in names)
        print(f"{hop:<26}" + "".join(f"{cell:14.2f}" for cell in cells))


if __name__ == "__main__":
    main(sys.argv[1:])
