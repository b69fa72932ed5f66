"""Edge cases across small API surfaces."""

import pytest

from repro.analysis.gantt import render_gantt
from repro.runtime.engine import EngineReport
from repro.runtime.trace import Trace

from .conftest import random_problem


def test_engine_report_empty_occupancy():
    rep = EngineReport(
        elapsed=0.0, tasks_run=0, messages=0, message_bytes=0,
        local_edges=0, local_bytes=0, useful_flops=0.0, redundant_flops=0.0,
    )
    assert rep.occupancy(4) == 0.0
    assert rep.gflops == 0.0


def test_gantt_excludes_comm_lane_on_request():
    t = Trace()
    t.record(0, 0, "interior", 0.0, 1.0)
    t.record(0, -1, "send", 0.0, 0.5)
    with_comm = render_gantt(t, 0, width=10)
    without = render_gantt(t, 0, width=10, include_comm=False)
    assert "comm" in with_comm and "comm" not in without


def test_gantt_custom_glyphs():
    t = Trace()
    t.record(0, 0, "interior", 0.0, 1.0)
    out = render_gantt(t, 0, width=4, glyphs={"interior": "@"})
    assert "@@@@" in out


def test_gantt_unknown_kind_falls_back_to_initial():
    t = Trace()
    t.record(0, 0, "mystery", 0.0, 1.0)
    out = render_gantt(t, 0, width=4)
    assert "MMMM" in out


def test_trace_median_empty():
    assert Trace().median_duration() == 0.0
    assert Trace().makespan() == 0.0


def test_runner_report_params_roundtrip(machine4):
    import repro

    prob = random_problem(n=16, iterations=3)
    res = repro.run(prob, impl="ca-parsec", machine=machine4, tile=4,
                    steps=2, mode="simulate", policy="lifo")
    d = res.to_dict()
    assert d["policy"] == "lifo" and d["steps"] == 2 and d["impl"] == "ca-parsec"
    assert d["message_mb"] == pytest.approx(res.message_bytes / 1e6)


def test_include_redundant_override_affects_time(machine16):
    import repro

    prob = repro.JacobiProblem(n=2880, iterations=4)
    excl = repro.run(prob, impl="ca-parsec", machine=machine16, tile=288,
                     steps=15, ratio=0.4, mode="simulate")
    incl = repro.run(prob, impl="ca-parsec", machine=machine16, tile=288,
                     steps=15, ratio=0.4, mode="simulate",
                     include_redundant=True)
    # Charging the replicated halo work cannot make the run faster.
    assert incl.elapsed >= excl.elapsed


def test_stream_model_row_getitem():
    from repro.machine.machine import nacl
    from repro.machine.stream import model

    row = model(nacl().node, "1-node")
    assert row["copy"] == row.copy
    with pytest.raises(KeyError):
        row["quadratic"]


def test_weak_scaling_rejects_non_square():
    from repro.experiments import weak_scaling

    with pytest.raises(ValueError, match="square"):
        weak_scaling.sweep(node_counts=(2,))


def test_projection_point_gain_zero_base():
    from repro.experiments.projection import ProjectionPoint

    assert ProjectionPoint(1.0, 0.0, 5.0).gain == 0.0


def test_only_petsc_lite_imports_scipy():
    """scipy costs every process 0.15 s and 24 MiB; only
    ``MatAIJ.from_coo`` needs it, so importing the runner, the service
    and the CLI must not pull it in.  Likewise a solve needs only the
    runner: importing it must not execute the experiments (``repro``
    and ``repro.obs`` resolve their re-exports lazily)."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), os.environ.get("PYTHONPATH", "")]))
    for imports, unwanted in (
        ("import repro, repro.core.runner, repro.serve, repro.cli", "{'scipy'}"),
        ("from repro.core.runner import run",
         "{'repro.experiments'}"),
    ):
        code = (f"import sys\n{imports}\n"
                f"print(sorted(m for m in sys.modules if m in {unwanted} "
                f"or m.split('.')[0] in {unwanted}))")
        proc = subprocess.run([sys.executable, "-c", code], env=env, text=True,
                              capture_output=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]", imports
