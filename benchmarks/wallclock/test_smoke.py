"""Smoke test of the wall-clock benchmark: every workload at toy size,
timed and traced, through the real command line.

Run with ``pytest benchmarks/wallclock``; not part of tier-1 (the
repository's ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import registry  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: Layers on each workload's path: their metrics must be measured, not 0-filled.
ON_PATH = {
    "kernel_large": ("core.", "stencil.", "distgrid.", "exec.run_s", "exec.task",
                     "critpath.compute_frac"),
    "halo_base": ("core.", "stencil.", "distgrid.", "exec.", "critpath.compute_frac"),
    "halo_ca": ("core.", "stencil.", "distgrid.", "exec.", "critpath.compute_frac"),
    "serve_mix": ("core.build", "stencil.", "distgrid.", "exec.run_s", "serve."),
}
#: On-path metrics that are legitimately 0 at toy size.
MAY_BE_ZERO = ("core.census", "core.redundant", "exec.steals", "serve.queue_wait_ms")


def run_cli(tmp_path: Path, workload: str, traced: bool) -> tuple[dict, dict]:
    """(last stdout line, --json document) of one toy run."""
    doc_path = tmp_path / f"{workload}_{int(traced)}.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--scale", "toy", "--trace", str(int(traced)),
         "--json", str(doc_path), "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1]), json.loads(doc_path.read_text())


@pytest.mark.parametrize("workload", registry.WORKLOAD_NAMES)
def test_workload_at_toy_size(tmp_path, workload):
    timed, timed_doc = run_cli(tmp_path, workload, traced=False)
    traced, traced_doc = run_cli(tmp_path, workload, traced=True)

    for last in (timed, traced):
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
        for name, entry in last["metrics"].items():
            assert NAME.fullmatch(name)
            assert math.isfinite(entry["value"])
            assert entry["unit"] == registry.BY_NAME[name].unit
    # the driver's view: what BENCHMARK.json lists, in its order
    manifest = registry.manifest()
    assert list(timed["metrics"]) == [m["name"] for m in manifest["end_to_end"]]
    assert list(traced["metrics"]) == [m["name"] for m in manifest["per_layer"]]
    assert all(entry["value"] > 0 for entry in timed["metrics"].values())
    for name, entry in traced["metrics"].items():
        if name.startswith(ON_PATH[workload]) and not name.startswith(MAY_BE_ZERO):
            assert entry["value"] > 0, name

    # both modes report all six end-to-end metrics, under the same names
    assert tuple(timed_doc["end_to_end"]) == tuple(traced_doc["end_to_end"])
    assert tuple(timed_doc["end_to_end"]) == registry.END_TO_END_NAMES
    assert timed_doc["end_to_end"]["failed_frac"]["value"] == 0.0
    assert set(timed_doc["samples"]) >= {"reference_s", "solve_s"}
    assert "noisy_host" in timed_doc and "noisy_host" in traced_doc
    assert timed_doc["host"]["nproc"] >= 1

    spans = json.loads((tmp_path / f"trace_{workload}.json").read_text())["spans"]
    assert spans
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["end"] >= s["start"]
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] and s["end"] <= parent["end"], s
            assert parent["solve_id"] == s["solve_id"]


def test_manifest_is_the_registry():
    manifest = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    assert manifest == registry.manifest()
    assert [w["name"] for w in manifest["workloads"]] == [
        "kernel_large", "halo_base", "halo_ca", "serve_mix"]


def test_exits_nonzero_without_the_program(tmp_path):
    """In a directory that holds only the benchmark, there is nothing to
    measure: no result line, exit code not 0."""
    bare = tmp_path / "benchmarks" / "wallclock"
    bare.mkdir(parents=True)
    for path in HERE.glob("*.py"):
        shutil.copy(path, bare / path.name)
    done = subprocess.run(
        [sys.executable, str(bare / "run.py"), "--workload", "kernel_large", "--seed", "1",
         "--seconds", "1", "--trace", "0"], capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
