"""Multiprocess execution: base vs CA over real IPC halo exchange.

This bench runs the paper's headline claim end to end with *nothing
modelled*: four OS processes, one per simulated cluster node, exchange
node-boundary halos as real messages -- records their workers write
into and copy out of shared-memory rings (`repro.exec.procs`).  The
decomposition mirrors the paper's regime -- node-sized tiles on a 1D
process grid, as with the 288/864-wide tiles on NaCL/Stampede2 -- so
each node boundary is one producer and PA1's message coalescing is
exact.  Three findings are reported:

* the measured inter-process message count per implementation, lined
  up against the simulator's predicted count -- equal by construction
  (both count one message per (producer, tag, destination node));
* the base-vs-CA message ratio: exactly s when s divides the
  iteration count, the communication-avoiding trade made physical;
* wall-clock time, payload vs wire bytes and per-edge traffic, so the
  halo pattern of the run is visible, not just the totals.

The message-count assertions hold on any host (they are counting, not
timing).  Wall-clock rows are informational: on a container with
fewer cores than processes the absolute times mean little.
"""

from __future__ import annotations

import os

from repro.analysis.tables import format_table
from repro.core.runner import run
from repro.distgrid.partition import ProcessGrid
from repro.machine.machine import nacl
from repro.stencil.problem import JacobiProblem

FULL = bool(os.environ.get("REPRO_FULL"))
N = 480 if FULL else 240
TILE = N  # node-sized tiles: one producer per node boundary
ITERATIONS = 12
STEPS = 4
PROCS = 4
PGRID = ProcessGrid(PROCS, 1)
HOST_CORES = os.cpu_count() or 1


def _run(problem: JacobiProblem, impl: str, **kwargs):
    return run(
        problem,
        impl=impl,
        machine=nacl(PROCS),
        backend="processes",
        procs=PROCS,
        jobs=max(1, min(2, HOST_CORES // PROCS + 1)),
        pgrid=PGRID,
        **kwargs,
    )


def test_backend_processes_message_avoidance(once, show):
    """CA exchanges exactly s x fewer real messages than base."""
    problem = JacobiProblem(n=N, iterations=ITERATIONS)

    def measure():
        out = {}
        for impl, kwargs in (
            ("base-parsec", {"tile": TILE}),
            ("ca-parsec", {"tile": TILE, "steps": STEPS}),
        ):
            real = _run(problem, impl, **kwargs)
            sim = run(problem, impl=impl, machine=nacl(PROCS), pgrid=PGRID,
                      **kwargs)
            out[impl] = (real, sim)
        return out

    results = once(measure)

    rows = []
    for impl, (real, sim) in results.items():
        rows.append((
            impl,
            real.messages,
            sim.messages,
            f"{real.message_bytes / 1e6:.2f}",
            f"{real.engine.wire_bytes / 1e6:.2f}",
            f"{real.elapsed * 1e3:.1f}",
            f"{real.occupancy():.2f}",
        ))
    show(format_table(
        ("impl", "real msgs", "model msgs", "payload MB", "wire MB",
         "wall ms", "occ"),
        rows,
        title=f"processes backend, {N}^2 x {ITERATIONS} iters, tile {TILE}, "
              f"{PROCS} node processes (1D), steps={STEPS}",
    ))

    for impl, (real, sim) in results.items():
        # Counting, not timing: the measured IPC traffic must equal the
        # simulator's census of remote edges exactly.
        assert real.messages == sim.messages, (
            f"{impl}: measured {real.messages} inter-process messages, "
            f"model predicted {sim.messages}"
        )
        assert real.messages > 0
        # The rings carry record headers on top of the declared payload.
        assert real.engine.wire_bytes >= real.message_bytes

    base_msgs = results["base-parsec"][0].messages
    ca_msgs = results["ca-parsec"][0].messages
    show(f"base sends {base_msgs / ca_msgs:.2f}x the messages of CA "
         f"(steps={STEPS})")
    # s divides the iteration count and boundaries are one tile wide,
    # so PA1's coalescing is exact.
    assert base_msgs == STEPS * ca_msgs, (
        f"message ratio {base_msgs / ca_msgs:.2f}, expected exactly {STEPS}x"
    )

    import numpy as np

    reference = problem.reference_solution()
    for impl, (real, _sim) in results.items():
        assert np.max(np.abs(real.grid - reference)) < 1e-9, (
            f"{impl} grid diverged from the reference solver"
        )


def test_backend_processes_by_node(once, show):
    """Per-(src, dst) traffic table: the halo pattern made visible."""
    problem = JacobiProblem(n=N, iterations=ITERATIONS)

    def measure():
        return _run(problem, "ca-parsec", tile=TILE, steps=STEPS)

    result = once(measure)
    report = result.engine
    rows = [
        (f"{src} -> {dst}", msgs, f"{nbytes / 1e3:.1f}")
        for (src, dst), (msgs, nbytes) in sorted(report.by_pair.items())
    ]
    show(format_table(
        ("edge", "messages", "payload kB"),
        rows,
        title=f"ca-parsec inter-process traffic, {PROCS} processes",
    ))
    # On a 1D chain only node neighbours talk, and each pair's halo
    # traffic is symmetric.
    assert set(report.by_pair) == {
        (a, b) for a in range(PROCS) for b in (a - 1, a + 1)
        if 0 <= b < PROCS
    }
    for (src, dst), (msgs, _) in report.by_pair.items():
        assert report.by_pair[(dst, src)][0] == msgs, (
            f"asymmetric halo traffic between nodes {src} and {dst}"
        )
