"""Pass registry, pipeline-spec parsing and the verifying manager.

A pipeline is written ``"ca:steps=4,coarsen:factor=4"``:
comma-separated pass specs, each ``name[:key=value]`` -- every
registered pass takes one parameter.

:class:`PassManager` runs the passes in order and, after every one,
re-finalizes the rewritten graph with full validation, proves it
acyclic, and verifies each invariant the pass declared in
``preserves``.  A violation raises :class:`~repro.ir.core.PassError`
-- a rewrite that changes the useful work, the terminal outputs or an
undeclared census dimension is a miscompile, never a warning.
"""

from __future__ import annotations

import math
import time
from typing import Any, Callable, Iterable

from ..runtime.graph import GraphError, TaskGraph
from .ca import CAInsertionPass
from .coarsen import CoarsenPass
from .core import GraphPass, PassContext, PassError
from .report import GraphStats, PassReport, PipelineReport
from .rewrite import terminal_outputs

#: Registry of spec-addressable passes.
PASSES: dict[str, type[GraphPass]] = {
    CAInsertionPass.name: CAInsertionPass,
    CoarsenPass.name: CoarsenPass,
}


# -- spec parsing ---------------------------------------------------------


def parse_pipeline(spec: str | Iterable[str | GraphPass] | None) -> list[GraphPass]:
    """A pipeline spec (string, or a list of specs/instances) to a
    pass list.  ``None``/empty yields an empty pipeline."""
    if spec is None:
        return []
    if isinstance(spec, GraphPass):
        return [spec]
    if not isinstance(spec, str):
        passes: list[GraphPass] = []
        for item in spec:
            if isinstance(item, GraphPass):
                passes.append(item)
            else:
                passes.extend(parse_pipeline(item))
        return passes

    passes = []
    for segment in filter(None, (s.strip() for s in spec.split(","))):
        name, _, param = segment.partition(":")
        name = name.strip()
        cls = PASSES.get(name)
        if cls is None:
            raise PassError(
                f"unknown pass {name!r}; available: {', '.join(sorted(PASSES))}"
            )
        params: dict[str, str] = {}
        if param:
            key, sep, value = param.partition("=")
            key = key.strip()
            if not sep or not key:
                raise PassError(
                    f"pass {name!r}: malformed parameter {param!r} "
                    "(expected key=value)"
                )
            params[key] = value.strip()
        passes.append(cls.from_params(params))
    return passes


def pipeline_spec(passes: Iterable[GraphPass]) -> str:
    """The canonical spec string of a pass list (all parameters
    rendered, sorted) -- stable across equivalent spellings, so cache
    keys and signatures can use it verbatim."""
    return ",".join(p.spec() for p in passes)


def canonical_pipeline(spec: str | Iterable[str | GraphPass] | None) -> str:
    """Normalise any pipeline spelling to its canonical spec string."""
    return pipeline_spec(parse_pipeline(spec))


# -- invariants -----------------------------------------------------------


def _flops_equal(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-6)


def _check_useful_flops(before, after, bg, ag):
    ok = _flops_equal(before.useful_flops, after.useful_flops)
    return ok, f"{before.useful_flops} -> {after.useful_flops}"


def _check_redundant_flops(before, after, bg, ag):
    ok = _flops_equal(before.redundant_flops, after.redundant_flops)
    return ok, f"{before.redundant_flops} -> {after.redundant_flops}"


def _check_remote_census(before, after, bg, ag):
    ok = (
        before.remote_messages == after.remote_messages
        and before.remote_bytes == after.remote_bytes
        and before.census.by_pair == after.census.by_pair
    )
    return ok, (
        f"{before.remote_messages} msgs/{before.remote_bytes} B -> "
        f"{after.remote_messages} msgs/{after.remote_bytes} B"
    )


def _check_local_census(before, after, bg, ag):
    ok = (
        before.local_edges == after.local_edges
        and before.local_bytes == after.local_bytes
    )
    return ok, (
        f"{before.local_edges} edges/{before.local_bytes} B -> "
        f"{after.local_edges} edges/{after.local_bytes} B"
    )


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
    "remote_census": _check_remote_census,
    "local_census": _check_local_census,
    "remote_messages_not_increased": _check_messages_not_increased,
    "terminal_outputs": _check_terminal_outputs,
}


# -- the manager ----------------------------------------------------------


class PassManager:
    """Run a pass pipeline with per-pass verification."""

    def __init__(self, passes: str | Iterable[str | GraphPass]) -> None:
        self.passes = parse_pipeline(passes)
        if not self.passes:
            raise PassError("empty pass pipeline")

    @property
    def spec(self) -> str:
        return pipeline_spec(self.passes)

    def run(self, build: Any, ctx: PassContext) -> tuple[Any, PipelineReport]:
        """Apply every pass to ``build``; return the rewritten build
        and the full pipeline evidence."""
        graph: TaskGraph = build.graph
        before = GraphStats.of(graph)
        reports: list[PassReport] = []
        for p in self.passes:
            t0 = time.perf_counter()
            new_build, notes = p.apply(build, ctx)
            new_graph: TaskGraph = new_build.graph
            if not new_graph.finalized:
                new_graph.finalize(validate=True)
            try:
                new_graph.topological_order()  # proves acyclicity
            except GraphError as exc:
                raise PassError(
                    f"pass {p.spec()!r} produced a cyclic graph: {exc}"
                ) from exc
            after = GraphStats.of(new_graph)
            invariants: dict[str, bool] = {}
            for name in p.preserves:
                check = INVARIANTS.get(name)
                if check is None:
                    raise PassError(
                        f"pass {p.spec()!r} declares unknown invariant "
                        f"{name!r}"
                    )
                ok, detail = check(before, after, graph, new_graph)
                invariants[name] = ok
                if not ok:
                    raise PassError(
                        f"pass {p.spec()!r} violated invariant {name!r}: "
                        f"{detail}"
                    )
            reports.append(PassReport(
                name=p.name,
                spec=p.spec(),
                before=before,
                after=after,
                invariants=invariants,
                notes=dict(notes or {}),
                elapsed_s=time.perf_counter() - t0,
            ))
            build, graph, before = new_build, new_graph, after
        return build, PipelineReport(spec=self.spec, passes=tuple(reports))
