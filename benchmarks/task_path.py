"""One stencil task's path through the runtime, hop by hop (wall-clock).

    PYTHONPATH=src python benchmarks/task_path.py [kernel_large|halo_base|halo_ca]

Walks the hops `docs/runtime-guide.md` lists -- the graph template's
build (the first build of a shape, from an empty memo) and its bind
(every build: result grid, kernels, one shallow clone per task),
executor `_prepare`, ready queue, `PayloadStore.gather`, the task body (plan
lookup, ghost assigns, frame, banded kernel, outgoing copies; for a
tile's last task the kernel writing the core into the result grid),
`publish`/`release`, the worker's per-task record -- on one of the
wall-clock benchmark's geometries, single-threaded, and prints
microseconds per stencil task for each: the median over every stencil
task of the solve (over the last sweep's for "last sweep into grid"),
taken three times, best kept.  On the two-node geometries it also walks
the `processes` backend's two hops per *message*: "ring write" (encode
the record, copy it into the destination's shared-memory ring, post the
doorbell) and "ring drain" (take the ring lock, copy the record out
into a private array).  The hops are timed where they are called, one
after the other, so the numbers add up to a `jobs=1` solve without
thread hand-offs; they are a map of where the time goes, not a
benchmark.
"""

from __future__ import annotations

import multiprocessing
import sys
import time
from statistics import median

import numpy as np

from repro.core.dataflow import TEMPLATES, build_stencil_graph
from repro.core.spec import StencilSpec
from repro.exec.executor import ThreadedExecutor
from repro.exec.procs import _Channels, _encode, _record_bytes
from repro.exec.wallclock_trace import WallClockRecorder
from repro.machine.machine import nacl
from repro.runtime.scheduler import make_queue
from repro.runtime.store import PayloadStore
from repro.stencil.problem import JacobiProblem
from repro.stencil.variable import apply_stencil_region

GEOMETRIES = {  # benchmarks/wallclock/batch_workloads.py: CONFIGS
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
    first_s, _ = clock(build_stencil_graph, specs[0], nacl(nodes))
    spec = specs[1]  # a fresh one, as every run() makes: it adopts the geometry
    bind_s, built = clock(build_stencil_graph, spec, nacl(nodes))
    graph = built.graph
    stencil = [task for task in graph if task.key[-1] >= 0]
    per_task = 1e6 / len(stencil)
    hops = {"template build (first)": first_s * per_task,
            "bind (every run)": bind_s * per_task}

    executor = ThreadedExecutor(graph, jobs=1, policy="priority")
    hops["_prepare"] = clock(executor._prepare)[0] * per_task
    ready = make_queue("priority")  # what the executor holds, one per node
    dt_push = clock(lambda: [ready.push(task) for task in stencil])[0]
    dt_pop = clock(lambda: [ready.pop() for _ in stencil])[0]
    hops["ready queue push + pop"] = (dt_push + dt_pop) * per_task

    # The run itself, in graph order (a legal schedule), hop by hop.
    store = PayloadStore(graph, graph.tasks.values())
    recorder = WallClockRecorder(1)
    plan, weights = spec.exchange_plan(), problem.weights
    parts = {name: [] for name in ("gather", "plan lookup", "ghost assigns", "frame",
                                   "banded kernel", "outgoing copies", "last sweep into grid",
                                   "stencil_task", "publish + release", "per-task record",
                                   "ring write (per message)", "ring drain (per message)")}
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
        if task.key[-1] < 0:
            continue
        parts["gather"].append(dt)
        parts["stencil_task"].append(kernel_dt)
        parts["publish + release"].append(post_dt)
        parts["per-task record"].append(record_dt)
        # The body's pieces again, on the same (now cache-warm) data.
        name, i, j, t = task.key
        dt, exchange = clock(lambda: plan[(i, j)][t % steps])
        parts["plan lookup"].append(dt)
        ext = inputs[((name, i, j, t - 1), "tile")]

        def ghosts():
            ext.setflags(write=True)
            for (pi, pj), tag, _, dest, shape, _ in exchange.incoming:
                values = inputs[((name, pi, pj, t - 1), tag)]
                if values.shape == shape:
                    ext[dest] = values
            ext.setflags(write=False)

        parts["ghost assigns"].append(clock(ghosts)[0])
        if t + 1 == problem.iterations:
            tile = spec.tile(i, j)
            rs, cs = tile.core_slices()
            view = built.grid[tile.r0 : tile.r1, tile.c0 : tile.c1]
            parts["last sweep into grid"].append(clock(
                lambda: apply_stencil_region(ext, weights, rs, cs, origin=exchange.origin,
                                             out=view))[0])
            continue
        rs, cs = exchange.update
        new = np.empty(ext.shape)

        def frame():
            new[: rs.start] = ext[: rs.start]
            new[rs.stop :] = ext[rs.stop :]
            new[rs, : cs.start] = ext[rs, : cs.start]
            new[rs, cs.stop :] = ext[rs, cs.stop :]

        parts["frame"].append(clock(frame)[0])
        parts["banded kernel"].append(clock(
            lambda: apply_stencil_region(ext, weights, rs, cs, origin=exchange.origin,
                                         out=new[rs, cs]))[0])
        parts["outgoing copies"].append(clock(
            lambda: [new[source].copy() for _, source in exchange.outgoing])[0])
    for name, samples in parts.items():
        hops[name] = median(samples) * 1e6 if samples else float("nan")
    return hops


def main(argv: list[str]) -> None:
    names = argv or list(GEOMETRIES)
    runs = {name: [one_solve(GEOMETRIES[name]) for _ in range(3)] for name in names}
    print(f"{'us per stencil task':<26}" + "".join(f"{name:>14}" for name in names))
    for hop in runs[names[0]][0]:
        cells = (min(run[hop] for run in runs[name]) for name in names)
        print(f"{hop:<26}" + "".join(f"{cell:14.2f}" for cell in cells))


if __name__ == "__main__":
    main(sys.argv[1:])
