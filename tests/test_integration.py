"""End-to-end integration scenarios across package boundaries."""

import csv
import json

import numpy as np

import repro
from repro.analysis import csvio, format_table, render_gantt
from repro.core.verify import verify_schedule
from repro.obs import export
from repro.core.spec import ca_plan

from .conftest import random_problem


def test_sweep_to_csv_to_table(tmp_path):
    """The analysis pipeline a user would run: sweep -> CSV -> table."""
    problem = repro.JacobiProblem(n=576, iterations=4)
    records = [
        repro.run(problem, machine=repro.nacl(4), impl=impl, tile=144,
                  steps=4, ratio=ratio).to_dict()
        for impl in ("base-parsec", "ca-parsec") for ratio in (1.0, 0.25)
    ]
    path = tmp_path / "sweep.csv"
    csvio.write_csv(records, str(path))
    with open(path, newline="") as fh:
        back = list(csv.DictReader(fh))
    assert len(back) == 4
    assert max(back, key=lambda r: float(r["gflops"]))["ratio"] == "0.25"
    table = format_table(
        ("impl", "ratio", "gflops"),
        [(r["impl"], r["ratio"], r["gflops"]) for r in back],
    )
    assert "ca-parsec" in table


def test_trace_pipeline_gantt_and_chrome(tmp_path, machine4):
    prob = random_problem(n=48, iterations=6)
    res = repro.run(prob, impl="ca-parsec", machine=machine4, tile=12,
                    steps=4, mode="simulate", trace=True)
    gantt = render_gantt(res.trace, node=0, width=60)
    assert " w" in gantt and "comm" in gantt
    path = tmp_path / "trace.json"
    export.write(res.trace, str(path))
    doc = json.loads(path.read_text())
    span_count = sum(1 for e in doc["traceEvents"] if e["ph"] == "X")
    assert span_count == len(res.trace)


def test_transform_verify_run_roundtrip(machine4):
    """Base build and CA build of one problem -> replication plan ->
    static verification -> execution -> bit-exact result."""
    from repro.core.base_parsec import build_base_graph
    from repro.core.ca_parsec import build_ca_graph

    prob = random_problem(n=24, iterations=7, seed=21)
    base = build_base_graph(prob, machine4, tile=6, with_kernels=False)
    ca = build_ca_graph(prob, machine4, tile=6, steps=3)
    assert ca_plan(base, ca).messages_saved_fraction > 0
    verify_schedule(ca.spec)
    rep = repro.Engine(ca.graph, machine4, execute=True).run()
    assert np.array_equal(ca.assemble_grid(rep.results), prob.reference_solution())


def test_public_api_surface():
    """Everything __all__ promises exists and is documented, in the
    package and in every subpackage."""
    import importlib
    import pkgutil

    subpackages = [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    ]
    for module in (repro, *subpackages):
        assert module.__doc__, f"{module.__name__} lacks a docstring"
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name)  # raises if the export is broken
            if callable(obj) and not isinstance(obj, type(repro)):
                assert getattr(obj, "__doc__", None) or name.isupper(), (
                    f"{module.__name__}.{name} lacks a docstring"
                )


def test_machine_model_consistency():
    """Cross-module sanity: the Fig. 6 plateau implied by the cost
    model matches the roofline bracket scaled by kernel efficiency."""
    from repro.machine.roofline import stencil_peak_range
    from repro.stencil.cost import KernelCostModel

    for machine in (repro.nacl(), repro.stampede2()):
        workers = machine.node.compute_cores
        plateau = KernelCostModel(machine).node_gflops_bound(workers) * 1e9
        lo, hi = stencil_peak_range(machine.node)
        # The unoptimised kernel sits below the roofline bracket...
        assert plateau < hi
        # ...by roughly the efficiency factor (bpp=20 vs AI window).
        assert plateau > 0.4 * lo


def test_simulate_scales_to_paper_sized_graphs():
    """A paper-sized spatial configuration (80x80 tiles over 16 nodes)
    runs through the whole stack in timing mode."""
    prob = repro.JacobiProblem(n=23040, iterations=2)
    res = repro.run(prob, impl="ca-parsec", machine=repro.nacl(16),
                    tile=288, steps=2, mode="simulate")
    assert res.engine.tasks_run == 80 * 80 * 3
    assert res.gflops > 0
