"""The pass protocol: what a rewrite is and what it runs against.

A :class:`GraphPass` consumes a build (a finalized
:class:`~repro.runtime.graph.TaskGraph` plus the context needed to run
and interpret it, e.g. :class:`~repro.core.dataflow.BuildResult`) and
returns a rewritten build together with free-form notes for the pass
report.  Passes never mutate their input: the original graph stays
valid, the rewrite produces a fresh one.

Every pass declares which structural *invariants* it preserves (see
:data:`INVARIANTS` in :mod:`repro.ir.pipeline`); the
:class:`~repro.ir.pipeline.PassManager` verifies the declared set
after each rewrite and refuses a violating pass with
:class:`PassError` -- a rewrite that silently changed the useful work
or the terminal outputs is a miscompile, not an optimisation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from ..machine.machine import MachineSpec


class PassError(ValueError):
    """A pass could not apply, was misconfigured, or violated one of
    its declared invariants."""


@dataclass(frozen=True)
class PassContext:
    """Everything a rewrite may consult beyond the graph itself.

    ``with_kernels`` tells structure-building passes (the CA
    insertion) whether to attach real kernels; ``ratio`` /
    ``include_redundant`` parameterise the cost model exactly as the
    runner's own build path does, so a pass-built graph prices its
    tasks identically to a hand-built one.  ``machine`` is the machine
    whose graph the backend executes -- the runner passes one node on
    ``threads``, so a rebuilt graph is again one node block there.
    """

    machine: MachineSpec
    with_kernels: bool = False
    ratio: float = 1.0
    include_redundant: bool | None = None


class GraphPass:
    """Base class of every rewrite pass.

    Subclasses set :attr:`name`, declare :attr:`preserves` (invariant
    names from :data:`repro.ir.pipeline.INVARIANTS`) and implement
    :meth:`apply`.  Passes must be stateless and reusable: the same
    instance may run inside several pipelines.
    """

    #: Registry name, also the head of the spec string (``"fuse"``).
    name: str = "?"

    #: Invariants the manager verifies after this pass.
    preserves: tuple[str, ...] = ("useful_flops",)

    def apply(self, build: Any, ctx: PassContext) -> tuple[Any, dict]:
        """Rewrite ``build`` into ``(new_build, notes)``.

        ``new_build`` must expose ``.graph`` (finalized or not -- the
        manager finalizes with validation either way) and keep
        whatever result-interpretation contract the input had
        (``assemble_grid`` et al.).  ``notes`` is a JSON-safe dict
        surfaced verbatim in the :class:`~repro.ir.report.PassReport`.
        """
        raise NotImplementedError

    def params(self) -> dict[str, Any]:
        """The pass's configuration, every knob explicit (defaults
        included) so the canonical spec string is stable."""
        return {}

    def spec(self) -> str:
        """Canonical ``name:key=value,...`` form -- what cache keys,
        signatures and reports record."""
        params = self.params()
        if not params:
            return self.name
        rendered = ",".join(f"{k}={params[k]}" for k in sorted(params))
        return f"{self.name}:{rendered}"

    @classmethod
    def from_params(cls, params: dict[str, str]) -> "GraphPass":
        """Build an instance from parsed ``key=value`` strings.

        The default accepts no parameters; parameterised passes
        override this and convert/validate each value.
        """
        if params:
            raise PassError(
                f"pass {cls.name!r} takes no parameters, got "
                f"{sorted(params)}"
            )
        return cls()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec()}>"


def int_param(params: dict[str, str], key: str, default: int,
              pass_name: str, minimum: int = 0) -> int:
    """Parse one integer pass parameter with a typed error."""
    raw = params.pop(key, None)
    if raw is None:
        return default
    try:
        value = int(raw)
    except ValueError:
        raise PassError(
            f"pass {pass_name!r}: parameter {key}={raw!r} is not an "
            "integer"
        ) from None
    if value < minimum:
        raise PassError(
            f"pass {pass_name!r}: {key} must be >= {minimum}, got {value}"
        )
    return value


def reject_unknown(params: dict[str, str], pass_name: str) -> None:
    """After the known keys were popped, anything left is a typo."""
    if params:
        raise PassError(
            f"pass {pass_name!r} got unknown parameters {sorted(params)}"
        )
