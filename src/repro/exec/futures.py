"""The future of a real (wall-clock) task-graph run.

The real backends are asynchronous by nature: :class:`RunHandle` is
the future of a whole run (wait / cancel / timeout, in the spirit of
``concurrent.futures``), the same class for ``threads`` and
``processes``.  There is no per-task future: where and when task *k*
ran is a span of ``report.trace`` (``trace=True``; spans carry
``task_id``), and payloads are refcounted and freed as soon as their
last consumer finishes, exactly like PaRSEC reclaims data copies --
terminal outputs survive in the report's ``results`` mapping as in
the simulator.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .executor import ExecReport


class ExecutionTimeout(TimeoutError):
    """Waiting on a run exceeded the given timeout."""


class RunCancelled(RuntimeError):
    """The run was cancelled before every task completed."""


class RunHandle:
    """Handle on an in-flight run.

    Returned by :meth:`ThreadedExecutor.start` and
    :meth:`ProcessExecutor.start`; :meth:`result` joins the run and
    returns its :class:`~repro.exec.executor.ExecReport`.
    """

    def __init__(self, cancel_callback: Callable[[], None]) -> None:
        self._cancel_callback: Callable[[], None] | None = cancel_callback
        #: orders :meth:`cancel` against :meth:`_finish`
        self._lock = threading.Lock()
        self._cancelled = False
        self._finished = threading.Event()
        self._report: "ExecReport | None" = None
        self._exception: BaseException | None = None

    # -- producer side (executor) --------------------------------------

    def _finish(self, report: "ExecReport | None", exc: BaseException | None) -> None:
        with self._lock:
            if self._cancelled and exc is None:
                # The cancel came after the last task, but it was
                # accepted: the run counts as cancelled.
                report, exc = None, RunCancelled("run cancelled after its last task finished")
            self._report = report
            self._exception = exc
            # A finished run cannot be cancelled.  Letting go of the
            # executor here breaks the executor <-> handle cycle, so a
            # one-shot executor (graph, payload store, lanes) is freed by
            # reference count, not whenever the cycle collector next runs.
            self._cancel_callback = None
            self._finished.set()

    # -- consumer side --------------------------------------------------

    def done(self) -> bool:
        return self._finished.is_set()

    def running(self) -> bool:
        return not self._finished.is_set()

    def cancel(self) -> bool:
        """Request cancellation.  Returns ``False`` if the run already
        finished; otherwise workers stop dequeuing tasks and
        :meth:`result` raises :class:`RunCancelled` -- even where every
        task had already run."""
        with self._lock:
            callback = self._cancel_callback
            if callback is None:
                return False
            self._cancelled = True
        callback()
        return True

    def exception(self, timeout: float | None = None) -> BaseException | None:
        """The run's error (or ``None``); waits for completion first."""
        if not self._finished.wait(timeout):
            raise ExecutionTimeout(f"run still executing after {timeout} s")
        return self._exception

    def result(self, timeout: float | None = None) -> "ExecReport":
        """Wait for the run; returns the report or re-raises the first
        kernel error / :class:`RunCancelled`.

        A timeout does **not** cancel the run -- call :meth:`cancel`
        if the work should stop too.
        """
        if not self._finished.wait(timeout):
            raise ExecutionTimeout(f"run did not complete within {timeout} s")
        if self._exception is not None:
            raise self._exception
        assert self._report is not None
        return self._report

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = "done" if self.done() else "running"
        return f"RunHandle({state})"


__all__ = [
    "ExecutionTimeout",
    "RunCancelled",
    "RunHandle",
]
