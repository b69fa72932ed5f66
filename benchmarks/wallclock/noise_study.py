"""The A/A study behind ``NOISE.json``: do two sets of runs of the same
code agree within the benchmark's own bounds?

    python benchmarks/wallclock/noise_study.py [--runs 5] [--keep DIR]

Runs ``--runs`` timed runs per workload into set A and as many into set
B, alternating A B A B ... with a fresh seed each, compares the sets
with ``compare.py``'s rule, and adds for every metric the quartile
spread of all the runs pooled -- the number the benchmark's driver
checks against the bound.  Before each run it waits for the 1-minute
load average to fall below 1.0 (the previous run alone leaves it near
1.7), so a run flagged ``noisy_host`` was disturbed by something else.
Writes ``NOISE.json`` beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import compare  # noqa: E402
import registry  # noqa: E402
from harness import host_facts, iqr_frac  # noqa: E402


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--runs", type=int, default=5, help="runs per workload in each set")
    p.add_argument("--keep", type=Path, metavar="DIR",
                   help="keep the per-run documents here instead of a temp directory")
    args = p.parse_args(argv)
    if args.keep is None:
        (HERE / ".tmp").mkdir(exist_ok=True)
        keep = Path(tempfile.mkdtemp(prefix="noise-", dir=HERE / ".tmp"))
    else:
        keep = args.keep
    try:
        return study(args.runs, keep)
    finally:
        if args.keep is None:
            shutil.rmtree(keep, ignore_errors=True)


def wait_for_quiet(limit_s: float = 120.0) -> None:
    """Until the 1-minute load average is below 1.0, or ``limit_s``."""
    deadline = time.monotonic() + limit_s
    while os.getloadavg()[0] >= 1.0 and time.monotonic() < deadline:
        time.sleep(2.0)


def study(runs: int, keep: Path) -> int:
    sets = {"A": keep / "A", "B": keep / "B"}
    seed, noisy = 100, []
    for _ in range(runs):
        for name, directory in sets.items():
            for workload in registry.WORKLOAD_NAMES:
                seed += 1
                doc = directory / f"{workload}_{seed}.json"
                wait_for_quiet()
                done = subprocess.run(
                    [sys.executable, str(HERE / "run.py"), "--workload", workload,
                     "--seed", str(seed), "--json", str(doc)],
                    capture_output=True, text=True)
                print(f"set {name} {workload} seed {seed}: exit {done.returncode}", flush=True)
                if done.returncode:
                    print(done.stdout[-2000:], done.stderr[-2000:])
                    return done.returncode
                if json.loads(doc.read_text())["noisy_host"]:
                    noisy.append(doc.stem)

    table = compare.compare(sets["A"], sets["B"])
    a, b = compare.load(sets["A"]), compare.load(sets["B"])
    for workload, rows in table.items():
        for r in rows:
            r["pooled_spread"] = iqr_frac(a[workload][r["metric"]] + b[workload][r["metric"]])
    print(compare.render(table))
    (HERE / "NOISE.json").write_text(json.dumps({
        "what": "A/A study: two alternating sets of runs of the same code; spreads are "
                "(q3 - q1) / median, b_worse_by is a share of A's median",
        "runs_per_set": runs, "run_seconds": registry.RUN_SECONDS,
        "noisy_host_runs": noisy, "host": host_facts(), "workloads": table,
    }, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
