"""Helpers the solver-service suites share: picklable problems, gates
that park a request in execution or a result-cache payload write or
read, and waits on the service's own conditions instead of the clock."""

from __future__ import annotations

import multiprocessing
import os
import threading

import numpy as np

from repro.distgrid.boundary import DirichletBC
from repro.exec import fork_available
from repro.machine.machine import nacl
from repro.serve import SolveRequest
from repro.serve import cache as cache_module
from repro.stencil.kernels import StencilWeights
from repro.stencil.problem import JacobiProblem

from .conftest import join_all


class _GridInit:
    """Picklable random-data initialiser: requests cross the process
    pool's pipes, so closures are off the table."""

    def __init__(self, values: np.ndarray) -> None:
        self.values = values

    def __call__(self, rows, cols):
        n, nc = self.values.shape
        return self.values[np.clip(rows, 0, n - 1), np.clip(cols, 0, nc - 1)]


def _bc(rows, cols):
    return np.sin(0.1 * rows) + np.cos(0.2 * cols)


def random_problem(n, iterations, seed=0):
    rng = np.random.default_rng(seed)
    return JacobiProblem(
        n=n,
        iterations=iterations,
        init=_GridInit(rng.normal(size=(n, n))),
        bc=DirichletBC(_bc),
        weights=StencilWeights.damped_jacobi(0.9),
    )


class Gate:
    """Picklable ``init`` that parks the first worker to evaluate it --
    any thread but the one that armed it, a forked child included --
    until ``release`` is set, so a test can hold a request *in
    execution* and act on events instead of sleeping.  The events are
    class attributes: a request crosses a pool child's pipe by pickle,
    the events reach the child by fork."""

    owner = entered = release = None

    @classmethod
    def arm(cls) -> "Gate":
        event = (multiprocessing.get_context("fork").Event
                 if fork_available() else threading.Event)
        cls.owner = (os.getpid(), threading.get_ident())
        cls.entered, cls.release = event(), event()
        return cls()

    def __call__(self, rows, cols):
        me = (os.getpid(), threading.get_ident())
        if me != self.owner and not self.entered.is_set():
            self.entered.set()
            self.release.wait(60)
        return 0.01 * rows + cols


def gated_problem(n=24, iterations=2) -> JacobiProblem:
    """A problem whose solve parks in its first init task (the gate's
    events are on the returned problem's ``init``).  Build it before
    the service forks the child that is to park."""
    return JacobiProblem(n=n, iterations=iterations, init=Gate.arm(),
                         bc=DirichletBC(_bc),
                         weights=StencilWeights.damped_jacobi(0.9))


def _request(problem, **overrides) -> SolveRequest:
    knobs = dict(
        impl="ca-parsec", machine=nacl(4), tile=6, steps=3,
        backend="threads", jobs=2,
    )
    knobs.update(overrides)
    return SolveRequest(problem=problem, **knobs)


def _no_serve_leftovers(timeout: float = 0.0) -> list[str]:
    """Names of the service's threads and children still alive after
    joining each against one ``timeout``-second deadline."""
    workers = [*threading.enumerate(), *multiprocessing.active_children()]
    return join_all([w for w in workers if w.name.startswith("repro-serve")],
                    timeout)


def solve_finished(service, tenant: str = "default") -> bool:
    """Wait until ``tenant`` has nothing in flight, on the queue's own
    condition: ``task_done`` is the last thing a runner does for a
    solve, after it dropped a worker the solve left dead."""
    queue = service.queue
    with queue._ready:
        return queue._ready.wait_for(
            lambda: not queue._inflight.get(tenant), timeout=30)


class GatedPayloadWrites:
    """Parks every entry-file write of ``repro.serve.cache`` until
    ``release`` is set (``fail`` makes it raise instead)."""

    def __init__(self, monkeypatch, fail: bool = False) -> None:
        self.started, self.release = threading.Event(), threading.Event()
        write = cache_module.atomic_write

        def gated(path, write_fn):
            if str(path).endswith(cache_module.SUFFIX):
                self.started.set()
                if fail:
                    return write(path, self._disk_full)
                assert self.release.wait(60)
            return write(path, write_fn)

        monkeypatch.setattr(cache_module, "atomic_write", gated)

    @staticmethod
    def _disk_full(fh):
        fh.write(b"half a payload")
        raise OSError(28, "No space left on device")


class LoadSpy:
    """Counts the entry-file reads of ``repro.serve.cache`` (disk
    reads); with ``park=True`` the first one, its entry file open,
    waits for ``release`` before it returns."""

    def __init__(self, monkeypatch, park: bool = False) -> None:
        self.calls, self.park = 0, park
        self.started, self.release = threading.Event(), threading.Event()
        read = cache_module._read_entry

        def spy(*args, **kwargs):
            self.calls += 1
            outcome = read(*args, **kwargs)
            if self.park and not self.started.is_set():
                self.started.set()
                assert self.release.wait(60)
            return outcome

        monkeypatch.setattr(cache_module, "_read_entry", spy)
