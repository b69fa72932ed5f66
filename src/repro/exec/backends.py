"""The single registry of execution backends.

Both the runner (argument validation) and the CLI (choices listing)
used to carry their own copy of the backend tuple; they now share this
one, so adding a backend is a single edit here plus its executor.

Keep this module dependency-free (no numpy, no sibling imports): the
runner imports it during :mod:`repro.core` start-up and the CLI needs
it before any heavy machinery loads.
"""

from __future__ import annotations

#: Backend names :func:`repro.core.runner.run` accepts, with the
#: one-line story the CLI help repeats.
BACKEND_DESCRIPTIONS: dict[str, str] = {
    "sim": "discrete-event model of a cluster (virtual clock), the default",
    "threads": "real shared-memory execution on worker threads sharing one "
               "ready queue; one address space, so the grid is one node block",
    "processes": "one OS process per simulated node; node-boundary halos "
                 "travel as real messages through shared-memory rings",
}

BACKENDS: tuple[str, ...] = tuple(BACKEND_DESCRIPTIONS)

#: Backends that measure wall-clock time on this host (everything but
#: the simulator).
MEASURED_BACKENDS: tuple[str, ...] = tuple(b for b in BACKENDS if b != "sim")


def backend_available(name: str) -> bool:
    """Whether ``name`` can actually execute on this host.

    The simulator and the thread pool always can; the multiprocess
    backend needs a fork-capable ``multiprocessing`` (absent on some
    restricted platforms).  The autotuner consults this before
    spending measured-refinement budget, falling back to a model-only
    pick instead of crashing mid-session.
    """
    if name not in BACKENDS:
        return False
    if name == "processes":
        try:
            import multiprocessing

            multiprocessing.get_context("fork")
        except (ImportError, ValueError):
            return False
    return True


__all__ = ["BACKENDS", "BACKEND_DESCRIPTIONS", "MEASURED_BACKENDS",
           "backend_available"]
