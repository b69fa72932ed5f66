"""The pass protocol: what a rewrite is.

A :class:`GraphPass` consumes a build (a finalized
:class:`~repro.runtime.graph.TaskGraph` plus the context needed to
interpret it, e.g. :class:`~repro.core.dataflow.BuildResult`) and
returns a rewritten build together with free-form notes for the pass
report.  Passes never mutate their input: the original graph stays
valid, the rewrite produces a fresh one.

Every pass declares which structural *invariants* it preserves (see
:data:`INVARIANTS` in :mod:`repro.ir.pipeline`);
:func:`~repro.ir.pipeline.apply_pass` verifies the declared set after
the rewrite and refuses a violating pass with :class:`PassError` -- a
rewrite that silently changed the useful work or the terminal outputs
is a miscompile, not an optimisation.
"""

from __future__ import annotations

from typing import Any


class PassError(ValueError):
    """A pass could not apply, was misconfigured, or violated one of
    its declared invariants."""


class GraphPass:
    """Base class of every rewrite pass.

    Subclasses set :attr:`name`, declare :attr:`preserves` (invariant
    names from :data:`repro.ir.pipeline.INVARIANTS`) and implement
    :meth:`apply`.  Passes must be stateless and reusable: the same
    instance may rewrite several builds.
    """

    #: The head of the spec string (``"coarsen"``).
    name: str = "?"

    #: Invariants :func:`~repro.ir.pipeline.apply_pass` verifies after
    #: this pass.
    preserves: tuple[str, ...] = ("useful_flops",)

    def apply(self, build: Any) -> tuple[Any, dict]:
        """Rewrite ``build`` into ``(new_build, notes)``.

        ``new_build`` must expose ``.graph`` (finalized or not --
        :func:`~repro.ir.pipeline.apply_pass` finalizes with validation
        either way) and keep whatever result-interpretation contract
        the input had (``assemble_grid`` et al.).  ``notes`` is a JSON-safe dict
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

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.spec()}>"

