"""Node pools: the node processes of the processes backend, kept
between runs.

A run whose graph a node can rebuild from a description -- a stencil
build's graph, unwrapped, whose problem pickles
(:class:`~repro.core.recipe.Recipe`) -- is always dispatched
(:meth:`_Pool.dispatch`): to the idle pool of its ``(procs, jobs)``, or
else to nodes forked *bare* for it, which become that key's pool if it
has none and are closed after the run otherwise; their rings, one of
:data:`~repro.exec.procs.RING_BYTES` per ordered node pair, serve any
run sent to them.  Any other run forks one-shot nodes that inherit its
graph and exit with it.
A cancelled or failed run, or a lost node, closes its pool; an idle pool
closes itself after :data:`IDLE_CLOSE` (:func:`close_pools` at once, and
at interpreter exit).
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
import time
from multiprocessing.connection import Connection
from multiprocessing.reduction import send_handle
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .procs import _Channels

#: Seconds a process gets to exit voluntarily before it is terminated.
JOIN_GRACE = 5.0

#: Seconds an idle pool waits for the next run of its ``(procs, jobs)``
#: before it closes itself: its processes reaped, its rings unmapped.
#: Long enough for a caller's work between two runs on a loaded host (a
#: 4096 x 256 reference solve between the benchmark's runs: 0.1-0.4 s),
#: short enough to be closed within a second.
IDLE_CLOSE = 0.8


class _Pool:
    """Node processes with their channels and control pipes.  A pool
    ends with its run unless it is kept (``kept``): then it idles between
    the runs of its ``(procs, jobs)`` (:class:`_NodePools`)."""

    def __init__(self, key: tuple[int, int]) -> None:
        self.key = key
        self.kept = False
        self.channels: _Channels | None = None
        self.processes: list[mp.Process] = []
        self.ctrl: dict[int, Connection] = {}
        self.busy = True
        #: runs started on it: an idle wait ends when this moves
        self.runs = 1
        self.closed = False

    def alive(self) -> bool:
        return all(proc.is_alive() for proc in self.processes)

    def dispatch(self, recipe, description: bytes, knobs: tuple) -> None:
        """Start a run on this pool's idle nodes: every node gets the
        description, the plan digest and the knobs, then the mapping's
        memfd on the same socket."""
        self.channels.reset()
        message = ("run", (description, recipe.digest, *knobs))
        for node, conn in self.ctrl.items():
            conn.send(message)
            send_handle(conn, recipe.fd, self.processes[node].pid)

    def reap(self, force: bool = False) -> None:
        """Tell the processes to close, then wait them out; stragglers
        (everyone, with ``force``) are terminated."""
        for conn in self.ctrl.values():
            try:
                conn.send(("close",))
            except OSError:  # exited already
                pass
        if not force:  # give everyone a chance to exit voluntarily
            deadline = time.monotonic() + JOIN_GRACE
            for proc in self.processes:
                proc.join(timeout=max(0.0, deadline - time.monotonic()))
        for proc in self.processes:
            if proc.is_alive():
                proc.terminate()
        for proc in self.processes:
            proc.join(timeout=JOIN_GRACE)
            if proc.is_alive():  # pragma: no cover - last resort
                proc.kill()
                proc.join(timeout=JOIN_GRACE)

    def unmap(self) -> None:
        """Close the control pipes and unmap the channels."""
        for conn in self.ctrl.values():
            try:
                conn.close()
            except OSError:
                pass
        if self.channels is not None:
            self.channels.close()

    def close(self, force: bool = False) -> None:
        self.reap(force)
        self.unmap()


class _NodePools:
    """This process's kept pools, at most one per ``(procs, jobs)``.
    The lock covers the table and every pool's ``busy`` / ``runs`` /
    ``closed``, never a fork, a dispatch or a close."""

    def __init__(self) -> None:
        self._pools: dict[tuple[int, int], _Pool] = {}
        self._new_lock()
        os.register_at_fork(after_in_child=self._forget)

    def _new_lock(self) -> None:
        self._lock = threading.Lock()
        self._changed = threading.Condition(self._lock)

    def _forget(self) -> None:
        """In a forked child: the parent's pools are not its own.  Its
        copies of their control pipes are closed, so their nodes still
        read EOF when the parent dies."""
        self._new_lock()
        for pool in self._pools.values():
            for conn in pool.ctrl.values():
                conn.close()
        self._pools = {}

    def adopt(self, pool: _Pool) -> None:
        """Keep ``pool``, busy with its first run, unless its key has a
        pool already."""
        with self._lock:
            if pool.key not in self._pools:
                self._pools[pool.key] = pool
                pool.kept = True

    def checkout(self, key: tuple[int, int]) -> _Pool | None:
        """The idle pool of ``key``, now busy; None if there is none or
        it is busy.  One with a dead node is closed instead."""
        with self._lock:
            pool = self._pools.get(key)
            if pool is None or pool.busy:
                return None
            if pool.alive():
                pool.busy = True
                pool.runs += 1
                self._changed.notify_all()
                return pool
            self._retire(pool)
        pool.close(force=True)
        return None

    def release(self, pool: _Pool) -> int:
        """``pool``'s run went well: it idles.  Returns its run count,
        for :meth:`linger`."""
        with self._lock:
            pool.busy = False
            return pool.runs

    def linger(self, pool: _Pool, runs: int) -> None:
        """Wait up to :data:`IDLE_CLOSE` for the pool's next run; close
        it if none started."""
        with self._lock:
            if self._changed.wait_for(lambda: pool.runs != runs or pool.closed,
                                      IDLE_CLOSE):
                return
            self._retire(pool)
        pool.close()

    def drop(self, pool: _Pool) -> None:
        """``pool`` closes (its run failed, or was cancelled)."""
        with self._lock:
            self._retire(pool)

    def _retire(self, pool: _Pool) -> None:
        if self._pools.get(pool.key) is pool:
            del self._pools[pool.key]
        pool.closed = True
        self._changed.notify_all()

    def close_idle(self) -> None:
        with self._lock:
            idle = [pool for pool in self._pools.values() if not pool.busy]
            for pool in idle:
                self._retire(pool)
        for pool in idle:
            pool.close()


_POOLS = _NodePools()
atexit.register(_POOLS.close_idle)


def close_pools() -> None:
    """Close every idle node pool now -- its processes reaped (and
    counted in ``RUSAGE_CHILDREN``), its pipes closed, its channels
    unmapped -- instead of after :data:`IDLE_CLOSE`."""
    _POOLS.close_idle()
