"""``benchmarks/rss_phases.py`` at toy size: it still runs every kind of
workload and prints one row per phase and the run's envelope."""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.exec import fork_available

SCRIPT = Path(__file__).resolve().parents[1] / "benchmarks" / "rss_phases.py"


@pytest.mark.timeout(120)
@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("workload,timed", [
    ("kernel_large", "timed pairs"),
    pytest.param("halo_base", "timed pairs", marks=pytest.mark.skipif(
        not fork_available(), reason="needs POSIX fork")),
    ("serve_mix", "timed window"),
])
def test_rss_phases_prints_every_phase_and_the_peak(workload, timed):
    out = subprocess.run([sys.executable, str(SCRIPT), workload, "--scale", "toy",
                          "--seconds", "0.1"], capture_output=True, text=True,
                         timeout=110, check=True).stdout
    phases = [line[:14].strip() for line in out.splitlines()[2:6]]  # the name column
    assert phases == ["imports", "reference", "set-up solves", timed], out
    peak = re.search(r"^peak ([\d.]+) MiB = parent ([\d.]+) \+ largest child ([\d.]+)$",
                     out, re.M)
    assert peak is not None, out
    total, parent, child = map(float, peak.groups())
    assert parent > 0 and total == pytest.approx(parent + child, abs=0.11)
