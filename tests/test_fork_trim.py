"""A forked node process inherits no heap its parent already freed.

A child counts every private page its parent has resident at the fork,
and glibc keeps freed heap below a live allocation resident until
``malloc_trim``: ``ProcessExecutor.start`` and the serve pool's
``ProcessWorker`` call :func:`repro.exec.procs.trim_heap` once before
they fork.  The check runs in a fresh interpreter, because
``RUSAGE_CHILDREN`` reports the largest child the process ever reaped.
"""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

import pytest

from repro.exec import fork_available
from repro.exec.procs import _malloc_trim

pytestmark = pytest.mark.skipif(
    not fork_available() or _malloc_trim() is None,
    reason="needs fork and glibc malloc_trim",
)

FREED_MIB = 48

CHILD = f"""
import ctypes, resource
from repro.core.runner import run
from repro.stencil.problem import JacobiProblem

def child_peak_mib():
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024

tiny = JacobiProblem(n=64, iterations=2)
run(tiny, impl="base-parsec", tile=32, backend="processes", procs=2)
before = child_peak_mib()
libc = ctypes.CDLL(None)
libc.malloc.restype = ctypes.c_void_p
libc.free.argtypes = [ctypes.c_void_p]
chunk = 64 << 10  # below the mmap threshold: heap, not a mapping
blocks = [libc.malloc(chunk) for _ in range({FREED_MIB} * 16)]
for block in blocks:
    ctypes.memset(block, 1, chunk)
pin = libc.malloc(chunk)  # a live allocation above the region
assert pin > max(blocks), "the pin must sit above the freed region"
for block in blocks:
    libc.free(block)
run(tiny, impl="base-parsec", tile=32, backend="processes", procs=2)
print(child_peak_mib() - before)
"""


def test_a_node_process_does_not_carry_freed_parent_heap():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": str(src)}
    out = subprocess.run([sys.executable, "-c", CHILD], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    growth = float(out.stdout.split()[-1])
    assert growth < FREED_MIB / 4, (
        f"a node process grew {growth:.1f} MiB after the parent freed "
        f"{FREED_MIB} MiB of heap"
    )
