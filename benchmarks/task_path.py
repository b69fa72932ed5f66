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
the task body (plan lookup, the lines a CA task copies of its own cells
before it updates them, the in-place kernel per rectangle with its
neighbour lines -- "line gather" times gathering those lines alone --
seams, and the strips written into their consumers' landing slots; the
last sweep updates the cores only), `publish`/`release` and the
worker's per-task record.  Each figure is the median over the solve's
tasks (over the last sweep's for "last sweep"), taken three times,
best kept.  On the multi-node geometries it also walks the `processes`
backend's two hops per *message*: "ring write" (put the header-only
ready record into the destination's shared-memory ring, post the
doorbell) and "ring drain" (take the ring lock, take the record out).
The hops are timed where they are called, one after the other, so the
numbers add up to a `jobs=1` solve without thread hand-offs; they are a
map of where the time goes, not a benchmark.

On `halo_*` a second table splits one traced `processes` run (`jobs=1`,
one process per node) into the parts no task span covers, from
`ProcessExecutor.stamps` and the trace: fork, or pool checkout, until
the parent is done with it or the first task starts, whichever comes
first; child boot, or run dispatch, from then until the first task
starts (a pool's first node may start while the parent is still
dispatching to the second: then 0); last task end until
the last report arrives; that report's unpickle plus the report and
trace merge; reap; unmap (the last two are zero for a run on a pool,
whose processes and rings outlive it).  Milliseconds, the median of
twelve runs after two warm-ups, each after a reference solve as in the
wall-clock benchmark's timed pairs.
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
from repro.exec.procs import ProcessExecutor, _Channels, _encode, _record_bytes
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
    parts = {name: [] for name in ("gather", "plan lookup", "own lines", "kernel",
                                   "line gather", "seams", "strips into slots", "last sweep",
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
        t = task.key[-1]
        if t < 0:
            continue
        parts["gather"].append(dt)
        parts["stencil_task"].append(kernel_dt)
        parts["publish + release"].append(post_dt)
        parts["per-task record"].append(record_dt)
        # The body's pieces again, on the same (now cache-warm) data.
        # An in-place sweep run twice is two sweeps: the values this
        # replay leaves are not a solve's, and nothing checks them.
        dt, (plan, phase) = clock(lambda: (
            (p := kernels.plans[task.key[:-1]]), p.phases[t % steps]))
        parts["plan lookup"].append(dt)
        last = t + 1 == problem.iterations
        block = plan.block
        parts["own lines"].append(clock(kernels._save, block, phase.own, t)[0])

        def update():
            for sweep in phase.update:
                if not last or sweep.rect.array is None:
                    kernels._update(sweep, block, t)

        def lines():
            for sweep in phase.update:
                for line in sweep.lines:
                    kernels._line(line, block, t)

        (parts["last sweep"] if last else parts["kernel"]).append(clock(update)[0])
        if last:
            continue
        parts["line gather"].append(clock(lines)[0])
        parts["seams"].append(clock(kernels._save, block, phase.saves, t)[0])
        parts["strips into slots"].append(clock(kernels._cut, phase.cuts, t)[0])
    channels.close()
    for name, samples in parts.items():
        hops[name] = median(samples) * 1e6 if samples else float("nan")
    hops["executed tasks"] = len(stencil)
    return hops


#: What one `processes` run spends outside its task spans, in order.
OUTSIDE = ("fork / pool checkout", "boot / dispatch -> first task",
           "last task -> last report", "report unpickle + merge", "reap", "unmap")


def outside_tasks(geometry: dict, runs: int = 12) -> dict[str, float]:
    """Milliseconds of one traced `processes` run of ``geometry`` outside
    its task spans, part by part (:data:`OUTSIDE`), then the run's wall
    (`start()` to the report built) and the tasks' extent (first task
    start to last task end): medians over ``runs`` runs after two."""
    g = dict(geometry)
    nodes, tile, steps = g.pop("nodes"), g.pop("tile"), g.pop("steps")
    problem = JacobiProblem(init=0.5, **g)
    parts: dict[str, list[float]] = {name: [] for name in (*OUTSIDE, "run wall", "tasks")}
    for k in range(runs + 2):
        problem.reference_solution()
        built = build_stencil_graph(
            StencilSpec.create(problem, nodes=nodes, tile=tile, steps=steps), nacl(nodes))
        executor = ProcessExecutor(built.graph, procs=nodes, jobs=1, policy="priority",
                                   trace=True)
        report = executor.run()
        built.assemble_grid(report.results)
        if k < 2:
            continue
        at, epoch = executor.stamps, executor._epoch
        tasks = report.trace.compute_spans()
        first, last = (epoch + min(s.start for s in tasks), epoch + max(s.end for s in tasks))
        reaped = at.get("reaped", at["received"])
        unmapped = at.get("unmapped", reaped)
        for name, seconds in zip((*OUTSIDE, "run wall", "tasks"), (
                min(at["launched"], first) - at["start"], max(0.0, first - at["launched"]),
                at["arrived"] - last,
                at["received"] - at["arrived"] + at["reported"] - unmapped,
                reaped - at["received"], unmapped - reaped,
                at["reported"] - at["start"], last - first)):
            parts[name].append(seconds * 1e3)
    return {name: median(samples) for name, samples in parts.items()}


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
    halos = [name for name in names if GEOMETRIES[name]["nodes"] > 1]
    if halos:
        split = {name: outside_tasks(GEOMETRIES[name]) for name in halos}
        print(f"\n{'ms of a processes run':<32}" + "".join(f"{name:>14}" for name in halos))
        for part in split[halos[0]]:
            print(f"{part:<32}" + "".join(f"{split[name][part]:14.2f}" for name in halos))


if __name__ == "__main__":
    main(sys.argv[1:])
