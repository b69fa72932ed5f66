"""The fault injector: plan in, deterministic firings out.

One :class:`FaultInjector` serves a whole recovery session (possibly
several run attempts, possibly several OS processes).  Two invariants
make the same plan replay identically on the simulator, the thread
pool and the process mesh:

* **Identity-based firing.**  Whether a fault applies to a task is a
  pure function of ``(node, global iteration)`` -- never of schedule
  order, queue state or wall time.  The three backends intercept at
  equivalent points (kernel entry, message delivery), so they all ask
  the same questions and get the same answers.
* **Durable fire-once markers.**  Each fault owns a marker file under
  the session's work directory, created atomically (``open(..., "x")``)
  the first time it fires.  Markers survive process death and restart
  attempts, so a kill consumed in attempt 1 cannot re-fire in attempt
  2 (which would loop recovery forever), and a forked node process
  agrees with its parent about what has already happened.

The injector is deliberately free when idle: backends consult it only
when a chaos context is attached, so resilience costs nothing on the
hot path of a fault-free run (the Collom-et-al. property).
"""

from __future__ import annotations

import json
import threading
from pathlib import Path

from .plan import (
    DEFAULT_DELAY_S,
    DEFAULT_RETRANSMIT_S,
    DEFAULT_SLOW_FACTOR,
    FaultPlan,
)

#: Base per-task seconds a ``slow`` fault stretches on the measured
#: backends (the simulator scales the modelled cost instead).
SLOW_BASE_S = 0.001


class FaultInjector:
    """Decide, durably and exactly once per fault, what fires when."""

    def __init__(
        self,
        plan: FaultPlan,
        s: int = 1,
        workdir: str | Path | None = None,
    ) -> None:
        self.plan = plan
        self.s = max(1, int(s))
        self.faults = list(plan.faults)
        #: resolved target iteration per fault (None = any/always)
        self.steps = [f.resolve_step(self.s) for f in self.faults]
        self.workdir: Path | None = None
        if workdir is not None:
            self.workdir = Path(workdir) / "faults"
            self.workdir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._logged: set[int] = set()
        if self.workdir is not None:
            for idx in range(len(self.faults)):
                if self._marker(idx).exists():
                    self._logged.add(idx)

    # -- firing records --------------------------------------------------

    def _marker(self, idx: int) -> Path:
        assert self.workdir is not None
        return self.workdir / f"fired-{idx:03d}.json"

    def fired(self, idx: int) -> bool:
        with self._lock:
            if idx in self._logged:
                return True
        if self.workdir is not None and self._marker(idx).exists():
            with self._lock:
                self._logged.add(idx)
            return True
        return False

    def log_once(self, idx: int, **detail) -> bool:
        """Record that fault ``idx`` fired; True exactly once globally
        (atomic marker creation arbitrates across threads *and*
        processes)."""
        with self._lock:
            if idx in self._logged:
                return False
            if self.workdir is None:
                self._logged.add(idx)
                return True
            doc = {"index": idx, "kind": self.faults[idx].kind,
                   "spec": self.faults[idx].spec(), **detail}
            try:
                with open(self._marker(idx), "x") as fh:
                    json.dump(doc, fh)
            except FileExistsError:
                self._logged.add(idx)
                return False
            self._logged.add(idx)
            return True

    def firing_log(self) -> list[dict]:
        """Every fault that has fired, as ``{"index", "kind", "spec"}``
        dicts sorted by plan position -- the canonical order the
        determinism suite compares (identity-only, so it is equal
        across backends and repeats by construction)."""
        out: list[dict] = []
        for idx, fault in enumerate(self.faults):
            if self.fired(idx):
                out.append({"index": idx, "kind": fault.kind,
                            "spec": fault.spec()})
        return out

    # -- task-entry decisions -------------------------------------------

    def kill_action(self, node: int, gt: int | None):
        """The kill fault claiming this task, after atomically marking
        it fired -- or None.  ``gt`` is the task's *global* iteration
        (restart offsets included); None matches only step-less kills."""
        for idx, fault in enumerate(self.faults):
            if fault.kind != "kill" or fault.node != node:
                continue
            step = self.steps[idx]
            if step is not None and step != gt:
                continue
            if self.log_once(idx, node=node, step=step):
                return fault
        return None

    def _delay_claim(self, idx: int, node: int, gt: int | None) -> float:
        """The seconds delay fault ``idx`` adds to this task: all of
        them for the one task that claims it (its fire-once marker, as
        :meth:`kill_action`), none for every other task of its (node,
        sweep) -- however many tasks a sweep of the node is."""
        step = self.steps[idx]
        if step is not None and step != gt:
            return 0.0
        if not self.log_once(idx, node=node, step=step):
            return 0.0
        fault = self.faults[idx]
        return fault.secs if fault.secs is not None else DEFAULT_DELAY_S

    def sleep_for(self, node: int, gt: int | None) -> float:
        """Extra wall seconds this task owes on the measured backends
        (a delay fault it claims plus the node's slow factor)."""
        total = 0.0
        for idx, fault in enumerate(self.faults):
            if fault.node != node:
                continue
            if fault.kind == "delay":
                total += self._delay_claim(idx, node, gt)
            elif fault.kind == "slow":
                self.log_once(idx, node=node)
                base = fault.secs if fault.secs is not None else SLOW_BASE_S
                factor = fault.factor if fault.factor is not None \
                    else DEFAULT_SLOW_FACTOR
                total += base * max(0.0, factor - 1.0)
        return total

    def sim_cost(self, node: int, gt: int | None, cost: float) -> float:
        """The simulator's form of delay/slow: adjust the task's
        modelled cost (virtual clock), applied once at attach time."""
        for idx, fault in enumerate(self.faults):
            if fault.node != node:
                continue
            if fault.kind == "slow":
                factor = fault.factor if fault.factor is not None \
                    else DEFAULT_SLOW_FACTOR
                cost = cost * factor
                self.log_once(idx, node=node)
            elif fault.kind == "delay":
                cost += self._delay_claim(idx, node, gt)
        return cost

    # -- message decisions -----------------------------------------------

    def drop_delay(self, src: int, dst: int, gt: int | None) -> float | None:
        """Retransmit delay if an unfired drop fault matches this
        message, marking it fired -- else None (deliver normally)."""
        for idx, fault in enumerate(self.faults):
            if fault.kind != "drop":
                continue
            if fault.src is not None and fault.src != src:
                continue
            if fault.dst is not None and fault.dst != dst:
                continue
            step = self.steps[idx]
            if step is not None and step != gt:
                continue
            if self.log_once(idx, src=src, dst=dst, step=step):
                return fault.secs if fault.secs is not None \
                    else DEFAULT_RETRANSMIT_S
        return None


__all__ = ["FaultInjector", "SLOW_BASE_S"]
