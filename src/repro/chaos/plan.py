"""Seeded fault plans: what goes wrong, where, and when.

A :class:`FaultPlan` is a frozen, fingerprintable list of
:class:`Fault` entries.  Four fault kinds cover the failure modes the
recovery machinery must survive:

* ``kill``  -- the node is lost at iteration ``step`` (hard process
  death on the processes backend, a raised
  :class:`~repro.runtime.report.NodeLostError` elsewhere);
* ``delay`` -- one task of the node at iteration ``step`` takes
  ``secs`` extra seconds (virtual cost on the simulator, a real sleep
  on the measured backends) -- the straggler generator;
* ``slow``  -- every task of the node runs ``factor``x slower for the
  whole run (a degraded node rather than a point fault);
* ``drop``  -- the first matching ``src -> dst`` message of iteration
  ``step`` is dropped once and retransmitted after ``secs``.

Timing is expressed in *iterations*, not wall seconds, because that is
what makes one plan replay identically on the discrete-event
simulator, the thread pool and the process mesh: a fault fires as a
pure function of task identity ``(node, iteration)``, never of
schedule order.  A step may be written ``"2s"`` -- two CA supersteps
-- and is resolved against the run's step size ``s``, tying fault
timing to the paper's exchange boundaries (where checkpoints live).

The plan grammar (the CLI's ``--plan``) is ``;``-separated faults,
each ``kind:key=value,key=value``::

    kill:node=3,step=2s
    kill:node=3,step=2s;delay:node=1,step=3,secs=0.01
    drop:src=0,dst=1,step=1s;slow:node=2,factor=3
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import asdict, dataclass

FAULT_KINDS = ("kill", "delay", "slow", "drop")

#: Default extra seconds of a ``delay`` fault.
DEFAULT_DELAY_S = 0.005
#: Default retransmit wait of a ``drop`` fault (seconds; virtual on
#: the simulator, spent in the sender's outbox on the processes backend).
DEFAULT_RETRANSMIT_S = 0.002
#: Default slowdown of a ``slow`` fault.
DEFAULT_SLOW_FACTOR = 3.0


class PlanError(ValueError):
    """A fault plan failed to parse or validate."""


@dataclass(frozen=True)
class Fault:
    """One planned fault.  ``step`` counts iterations from 0 and may
    be the string ``"<k>s"`` (k supersteps), resolved against the
    run's step size by :meth:`resolve_step`; None means "the first
    matching opportunity"."""

    kind: str
    node: int | None = None
    step: int | str | None = None
    src: int | None = None
    dst: int | None = None
    secs: float | None = None
    factor: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise PlanError(
                f"unknown fault kind {self.kind!r}; choices: {FAULT_KINDS}"
            )
        if self.kind in ("kill", "delay", "slow") and self.node is None:
            raise PlanError(f"{self.kind} faults need node=<id>")
        if self.kind == "slow" and self.factor is not None and self.factor <= 0:
            raise PlanError(f"slow factor must be positive, got {self.factor}")
        if self.secs is not None and self.secs < 0:
            raise PlanError(f"secs cannot be negative, got {self.secs}")
        if isinstance(self.step, str):
            body = self.step[:-1]
            if not (self.step.endswith("s") and body.isdigit()):
                raise PlanError(
                    f"step must be an iteration index or '<k>s', got {self.step!r}"
                )

    def resolve_step(self, s: int) -> int | None:
        """The concrete iteration index this fault targets, given the
        run's CA step size ``s`` (``"2s"`` -> ``2 * s``)."""
        if isinstance(self.step, str):
            return int(self.step[:-1]) * s
        return self.step

    def spec(self) -> str:
        """The parseable one-fault string (inverse of :func:`parse_plan`)."""
        parts = [f"{k}={v}" for k, v in asdict(self).items()
                 if k != "kind" and v is not None]
        return self.kind + (":" + ",".join(parts) if parts else "")


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, seeded set of faults; hashable and fingerprintable
    so determinism tests can pin 'same plan' exactly."""

    faults: tuple[Fault, ...] = ()
    seed: int = 0

    def spec(self) -> str:
        return ";".join(f.spec() for f in self.faults)

    def fingerprint(self) -> str:
        doc = {"seed": self.seed, "faults": [asdict(f) for f in self.faults]}
        blob = json.dumps(doc, sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]

    def __len__(self) -> int:
        return len(self.faults)


_INT_KEYS = ("node", "step", "src", "dst")
_FLOAT_KEYS = ("secs", "factor")


def _parse_value(key: str, raw: str):
    if key in _INT_KEYS:
        if key == "step" and raw.endswith("s"):
            return raw  # superstep-relative; resolved later
        try:
            return int(raw)
        except ValueError as exc:
            raise PlanError(f"{key} must be an integer, got {raw!r}") from exc
    if key in _FLOAT_KEYS:
        try:
            return float(raw)
        except ValueError as exc:
            raise PlanError(f"{key} must be a number, got {raw!r}") from exc
    raise PlanError(
        f"unknown fault field {key!r}; choices: {_INT_KEYS + _FLOAT_KEYS}"
    )


def parse_plan(spec: str, seed: int = 0) -> FaultPlan:
    """Parse ``"kill:node=3,step=2s;delay:node=1,step=3"`` into a
    :class:`FaultPlan`."""
    faults: list[Fault] = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        kind, _, body = chunk.partition(":")
        kwargs: dict = {}
        if body:
            for pair in body.split(","):
                key, eq, raw = pair.partition("=")
                if not eq:
                    raise PlanError(
                        f"malformed fault field {pair!r} (expected key=value)"
                    )
                kwargs[key.strip()] = _parse_value(key.strip(), raw.strip())
        faults.append(Fault(kind=kind.strip(), **kwargs))
    if not faults:
        raise PlanError(f"no faults in plan spec {spec!r}")
    return FaultPlan(faults=tuple(faults), seed=seed)


def random_plan(
    seed: int,
    nodes: int,
    iterations: int,
    kinds: tuple[str, ...] = ("kill", "delay"),
    max_faults: int = 3,
    max_kills: int = 1,
) -> FaultPlan:
    """A seeded random plan for property tests: ``random.Random(seed)``
    drives every choice, so the same seed is the same plan forever."""
    rng = random.Random(seed)
    count = rng.randint(1, max(1, max_faults))
    faults: list[Fault] = []
    kills = 0
    for _ in range(count):
        kind = rng.choice(kinds)
        if kind == "kill":
            if kills >= max_kills:
                kind = "delay" if "delay" in kinds else None
                if kind is None:
                    continue
            else:
                kills += 1
        node = rng.randrange(nodes)
        step = rng.randrange(iterations)
        if kind == "kill":
            faults.append(Fault(kind="kill", node=node, step=step))
        elif kind == "delay":
            faults.append(Fault(
                kind="delay", node=node, step=step,
                secs=rng.choice((0.001, 0.002, 0.005)),
            ))
        elif kind == "slow":
            faults.append(Fault(
                kind="slow", node=node, factor=rng.choice((2.0, 3.0)),
            ))
        else:  # drop
            dst = rng.randrange(nodes)
            faults.append(Fault(
                kind="drop", src=node, dst=dst if dst != node else None,
                step=step,
            ))
    return FaultPlan(faults=tuple(faults), seed=seed)


__all__ = [
    "DEFAULT_DELAY_S",
    "DEFAULT_RETRANSMIT_S",
    "DEFAULT_SLOW_FACTOR",
    "FAULT_KINDS",
    "Fault",
    "FaultPlan",
    "PlanError",
    "parse_plan",
    "random_plan",
]
