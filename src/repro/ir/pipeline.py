"""Pass-spec parsing and the verifying application of a pass.

A ``passes`` spec names one rewrite: ``coarsen`` or
``coarsen:factor=N``.

:func:`apply_pass` runs a pass, re-finalizes the rewritten graph with
full validation, proves it acyclic, and verifies each invariant the
pass declared in ``preserves``.  A violation raises
:class:`~repro.ir.core.PassError` -- a rewrite that changes the useful
work, the terminal outputs or the message count the wrong way is a
miscompile, never a warning.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable

from ..runtime.graph import GraphError, TaskGraph
from .coarsen import CoarsenPass
from .core import GraphPass, PassError
from .report import GraphStats, PassReport
from .rewrite import terminal_outputs

# -- spec parsing ---------------------------------------------------------


def parse_pipeline(spec: str | None) -> CoarsenPass | None:
    """The rewrite a ``passes`` spec names; ``None`` or empty names
    none.  Anything but ``coarsen[:factor=N]`` raises :class:`PassError`
    naming the one pass there is."""
    available = f"available: {CoarsenPass.name}"
    if spec is None:
        return None
    if not isinstance(spec, str):
        raise PassError(f"passes is one spec string, got {spec!r}; {available}")
    spec = spec.strip()
    if not spec:
        return None
    if "," in spec:
        raise PassError(f"passes names one rewrite, got {spec!r}; {available}")
    name, _, param = spec.partition(":")
    name = name.strip()
    if name != CoarsenPass.name:
        raise PassError(f"unknown pass {name!r}; {available}")
    if not param:
        return CoarsenPass()
    key, sep, value = (s.strip() for s in param.partition("="))
    if not sep or not key:
        raise PassError(
            f"pass {name!r}: malformed parameter {param!r} (expected factor=N)"
        )
    if key != "factor":
        raise PassError(f"pass {name!r} got unknown parameters [{key!r}]")
    try:
        factor = int(value)
    except ValueError:
        raise PassError(
            f"pass {name!r}: parameter factor={value!r} is not an integer"
        ) from None
    if factor < 2:
        raise PassError(f"pass {name!r}: factor must be >= 2, got {factor}")
    return CoarsenPass(factor=factor)


def canonical_pipeline(spec: str | None) -> str | None:
    """Any spelling of a ``passes`` spec as its canonical string (the
    parameter rendered, ``coarsen:factor=4``), or ``None`` for no
    rewrite -- what cache keys and signatures record."""
    rewrite = parse_pipeline(spec)
    return rewrite.spec() if rewrite is not None else None


# -- invariants -----------------------------------------------------------


def _flops_equal(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def _check_useful_flops(before, after, bg, ag):
    ok = _flops_equal(before.useful_flops, after.useful_flops)
    return ok, f"{before.useful_flops} -> {after.useful_flops}"


def _check_redundant_flops(before, after, bg, ag):
    ok = _flops_equal(before.redundant_flops, after.redundant_flops)
    return ok, f"{before.redundant_flops} -> {after.redundant_flops}"


def _check_messages_not_increased(before, after, bg, ag):
    ok = after.remote_messages <= before.remote_messages
    return ok, f"{before.remote_messages} -> {after.remote_messages} msgs"


def _check_terminal_outputs(before, after, bg, ag):
    missing = terminal_outputs(bg) - terminal_outputs(ag)
    return not missing, (
        f"{len(missing)} terminal result slots vanished" if missing
        else "terminal result slots preserved"
    )


#: invariant name -> check(before_stats, after_stats, before_graph,
#: after_graph) -> (ok, detail).
INVARIANTS: dict[str, Callable[..., tuple[bool, str]]] = {
    "useful_flops": _check_useful_flops,
    "redundant_flops": _check_redundant_flops,
    "remote_messages_not_increased": _check_messages_not_increased,
    "terminal_outputs": _check_terminal_outputs,
}


# -- applying a pass ------------------------------------------------------


def apply_pass(rewrite: GraphPass, build: Any) -> tuple[Any, PassReport]:
    """Apply ``rewrite`` to ``build`` and verify it; return the
    rewritten build and the pass's evidence."""
    graph: TaskGraph = build.graph
    before = GraphStats.of(graph)
    t0 = time.perf_counter()
    new_build, notes = rewrite.apply(build)
    new_graph: TaskGraph = new_build.graph
    if not new_graph.finalized:
        new_graph.finalize(validate=True)
    try:
        new_graph.topological_order()  # proves acyclicity
    except GraphError as exc:
        raise PassError(
            f"pass {rewrite.spec()!r} produced a cyclic graph: {exc}"
        ) from exc
    after = GraphStats.of(new_graph)
    invariants: dict[str, bool] = {}
    for name in rewrite.preserves:
        ok, detail = INVARIANTS[name](before, after, graph, new_graph)
        invariants[name] = ok
        if not ok:
            raise PassError(
                f"pass {rewrite.spec()!r} violated invariant {name!r}: {detail}"
            )
    return new_build, PassReport(
        name=rewrite.name,
        spec=rewrite.spec(),
        before=before,
        after=after,
        invariants=invariants,
        notes=dict(notes or {}),
        elapsed_s=time.perf_counter() - t0,
    )
