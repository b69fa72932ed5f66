"""One description of a run: :class:`RunConfig`.

Every experiment in the paper sweeps the same handful of knobs --
implementation, tile (Fig. 6), CA step size (Fig. 9), kernel ratio
(Fig. 8), backend.  This module is the only place they are *named,
defaulted, validated and normalised*: :func:`repro.core.runner.run`
builds a ``RunConfig`` from its ``**knobs``; a
:class:`repro.serve.SolveRequest` carries one and reads its
``signature()`` off the field classification; the chaos
harness, the tuner's ``Candidate``, ``Sweep``'s axes and the CLI flags
(:meth:`RunConfig.add_flags` / :meth:`RunConfig.from_args`) consume it.
The rule "PETSc has no tile/steps/ratio, base-parsec has no CA step"
lives in :data:`APPLIES` and nowhere else.

Import-light by contract (stdlib and the two registries below; no
numpy, and :mod:`repro.ir` only once a config names a pass pipeline):
the benchmark's ``setup_s`` pays for whatever this module imports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from numbers import Integral
from typing import Any

from ..exec.backends import BACKEND_DESCRIPTIONS, BACKENDS
from ..runtime.scheduler import DEFAULT_POLICY, POLICIES

IMPLEMENTATIONS = ("petsc", "base-parsec", "ca-parsec")
MODES = ("simulate", "execute")

#: Which implementations a per-impl knob applies to (knobs not listed
#: apply to all three): PETSc's SpMV formulation has no tile, no
#: kernel-adjustment ratio and nothing to autotune; only CA has a step.
_PARSEC = ("base-parsec", "ca-parsec")
APPLIES = {"tile": _PARSEC, "ratio": _PARSEC, "steps": ("ca-parsec",)}

#: Field roles: ``ANSWER`` knobs change the arithmetic of the solution
#: grid (they are the solve signature); ``SCHEDULE`` knobs move only
#: the schedule, the fidelity or the instrumentation -- the conformance
#: suite proves they cannot change a grid.
ANSWER, SCHEDULE = "answer", "schedule"

#: Where, besides ``run()`` itself, a knob may be set: on a service
#: request (``SERVE``) and as a ``Sweep`` axis (``SWEEP``).
SERVE, SWEEP = "serve", "sweep"


def applies(knob: str, impl: str) -> bool:
    """Whether ``knob`` means anything to implementation ``impl``."""
    return impl in APPLIES.get(knob, IMPLEMENTATIONS)


def applicable(knobs: dict[str, Any]) -> dict[str, Any]:
    """``knobs`` without the entries its ``impl`` has no use for (they
    then take their defaults) -- how a caller that sweeps one flag set
    over all implementations stays legal."""
    impl = knobs.get("impl", RunConfig.impl)
    return {k: v for k, v in knobs.items() if applies(k, impl)}


def default_tile(problem, machine) -> int:
    """A reasonable tile size when the caller does not tune one: aim
    for ~25 tiles per node side-dimension-balanced, clamped to the
    paper's sweet-spot range."""
    per_node_rows = problem.shape[0] / max(1, math.isqrt(machine.nodes))
    guess = int(per_node_rows // 5) or 1
    return max(1, min(guess, 1024))


def int_or_auto(value: str) -> int | str:
    """CLI type of the knobs the tuner can own: an integer or 'auto'."""
    return value if value == "auto" else int(value)


def _knob(default, doc: str, role: str = SCHEDULE, faces: tuple = (),
          cli: dict | None = None):
    """One field: its default, its one-line meaning (also its ``--help``
    and its :func:`knob_table` row), its role, where it may be set, and
    the extra ``argparse`` keywords of its flag (``None``: the knob has
    no command-line face)."""
    return field(default=default, metadata={
        "doc": doc, "role": role, "faces": faces, "cli": cli,
    })


def _check_choice(name: str, value, choices) -> None:
    if value not in choices:
        raise ValueError(f"unknown {name} {value!r}; choices: {tuple(choices)}")


def _check_count(name: str, value, what: str = "int", *,
                 optional: bool = False, auto: bool = False) -> None:
    if (optional and value is None) or (auto and value == "auto"):
        return
    if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
        allowed = (f"a positive {what}" + (", None" if optional else "")
                   + (" or 'auto'" if auto else ""))
        raise ValueError(f"{name} must be {allowed}, got {value!r}")


@dataclass(frozen=True)
class RunConfig:
    """The declarative knobs of one run: everything
    :func:`~repro.core.runner.run` takes besides the problem, the
    machine and its runtime hooks.  Constructing one validates it --
    selector typos, non-positive counts and per-impl misuse raise
    ``ValueError`` before anything is built or queued.  Field order is
    load-bearing: ``Sweep``'s axis tuple lists its knobs in it.
    """

    impl: str = _knob(
        "base-parsec", "which implementation runs", ANSWER, (SERVE, SWEEP),
        dict(choices=IMPLEMENTATIONS))
    tile: int | str | None = _knob(
        None, "tile edge length (Fig. 6); default: a model pick",
        ANSWER, (SERVE, SWEEP), dict(type=int))
    steps: int | str = _knob(
        15, "CA step size (Fig. 9; ca-parsec only)",
        ANSWER, (SERVE, SWEEP), dict(type=int))
    ratio: float = _knob(
        1.0, "kernel adjustment ratio in (0, 1] (section VI-D; PaRSEC "
             "versions only)",
        ANSWER, (SERVE, SWEEP), dict(type=float))
    backend: str = _knob(
        "sim", "what executes the graph: " + "; ".join(
            f"'{name}' = {what}" for name, what in BACKEND_DESCRIPTIONS.items()),
        faces=(SERVE,), cli=dict(choices=BACKENDS))
    jobs: int | None = _knob(
        None, "worker threads per node of the real backends (default: 1; "
              "they share the row slabs of a large node block's sweep, "
              "multi-core across nodes is 'procs')",
        faces=(SERVE,), cli=dict(type=int))
    policy: str = _knob(DEFAULT_POLICY, "ready-queue scheduling policy",
                        faces=(SERVE, SWEEP), cli=dict(choices=tuple(POLICIES)))
    procs: int | None = _knob(
        None, "node processes of backend 'processes'; resizes the machine "
              "(default: its node count)",
        cli=dict(type=int))
    overlap: bool | None = _knob(
        None, "dedicated communication thread; default: the "
              "implementation's natural setting (PaRSEC yes, PETSc no)",
        faces=(SWEEP,))
    boundary_priority: bool = _knob(
        True, "schedule node-boundary tiles first (no effect on 'threads', "
              "which runs the grid as one node block)", faces=(SWEEP,))
    passes: str | None = _knob(
        None, "IR rewrite pipeline applied to the built graph, e.g. "
              "'fuse,coarsen:factor=4' (see docs/ir.md); canonicalised "
              "on construction",
        ANSWER, (SERVE, SWEEP), dict(metavar="SPEC"))
    mode: str = _knob(
        "simulate", "fidelity of backend 'sim': 'simulate' = timing-only "
                    "graph, any problem size; 'execute' = real kernels on "
                    "real data plus the final grid (the real backends "
                    "always execute)")
    trace: bool = _knob(False, "capture the task trace (Fig. 10)")
    include_redundant: bool | None = _knob(
        None, "charge CA's redundant updates to task time; default: only "
              "at ratio 1, the paper's choice")
    pgrid: Any = _knob(
        None, "explicit ProcessGrid; default: the squarest for the node count "
              "(on 'threads' it only places faults: the grid runs as one block)")
    tune: bool = _knob(
        False, "search tile/steps now (tune_budget simulated runs) instead "
               "of taking the cached or model-only pick")
    tune_budget: int | None = _knob(
        None, "tuning runs to spend (default: 16 with tune, else 0)")

    def __post_init__(self) -> None:
        _check_choice("impl", self.impl, IMPLEMENTATIONS)
        _check_choice("mode", self.mode, MODES)
        _check_choice("backend", self.backend, BACKENDS)
        _check_choice("policy", self.policy, POLICIES)
        _check_count("tile", self.tile, optional=True, auto=True)
        # None = "not applicable", the form resolved() gives non-CA runs.
        _check_count("steps", self.steps, auto=True,
                     optional=not applies("steps", self.impl))
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(
                f"kernel adjustment ratio must be in (0, 1], got {self.ratio!r}"
            )
        if not applies("ratio", self.impl) and self.ratio != 1.0:
            raise ValueError("the kernel adjustment ratio applies to the "
                             "PaRSEC versions only (paper section VI-D)")
        if not applies("tile", self.impl) and (self.tune or self.auto):
            raise ValueError(
                "autotuning applies to the PaRSEC implementations; "
                "petsc has no tile/step knobs"
            )
        _check_count("jobs", self.jobs, "worker count", optional=True)
        if self.procs is not None:
            if self.backend != "processes":
                raise ValueError(
                    "procs selects the node-process count of "
                    "backend='processes'; it does not apply to "
                    f"backend={self.backend!r}"
                )
            _check_count("procs", self.procs, "process count")
        if self.passes is not None:
            # Parsed up front so a typo fails here, not after the build,
            # and equivalent spellings share one signature.
            from ..ir import canonical_pipeline

            object.__setattr__(
                self, "passes", canonical_pipeline(self.passes) or None
            )

    # -- derived views ---------------------------------------------------

    @property
    def auto(self) -> bool:
        """Whether a knob is still handed to the tuner."""
        return "auto" in (self.tile, self.steps)

    @property
    def with_kernels(self) -> bool:
        """Real kernels on real data (always, on the real backends)."""
        return self.mode == "execute" or self.backend != "sim"

    def replace(self, **changes) -> "RunConfig":
        return replace(self, **changes)

    def resolved(self, problem, machine) -> "RunConfig":
        """This config with every per-impl decision made: ``tile`` and
        ``steps`` become ``None`` where the implementation has no use
        for them, a missing tile the model default (so an explicit
        request for the default hashes identically), ``overlap`` its
        natural setting.  ``'auto'`` must have been settled before."""
        parsec = applies("tile", self.impl)
        tile = self.tile if self.tile is not None else default_tile(problem, machine)
        return replace(
            self,
            tile=tile if parsec else None,
            steps=self.steps if applies("steps", self.impl) else None,
            overlap=parsec if self.overlap is None else self.overlap,
        )

    def knobs(self, face: str | None = None, role: str | None = None) -> dict[str, Any]:
        """``{name: value}`` in declaration order, optionally only the
        knobs settable at ``face`` and/or of ``role`` -- what
        ``run(problem, machine, **config.knobs())`` and a
        :class:`~repro.serve.SolveRequest` are built from."""
        return {name: getattr(self, name) for name in knob_names(face, role)}

    # -- command line ----------------------------------------------------

    @classmethod
    def add_flags(cls, parser, *, omit=(), choices=None, auto=False,
                  **defaults) -> None:
        """Register ``--<knob>`` for every knob with a command-line face
        except ``omit``.  ``defaults`` override a knob's default for
        this command, ``choices`` (``{knob: tuple}``) its accepted
        values, and ``auto`` lets ``--tile``/``--steps`` take 'auto'."""
        choices = choices or {}
        flagged = [f for f in fields(cls) if f.metadata["cli"] is not None]
        unknown = (set(omit) | set(choices) | set(defaults)).difference(
            f.name for f in flagged)
        if unknown:
            raise TypeError(f"not command-line knobs: {sorted(unknown)}")
        for f in flagged:
            if f.name in omit:
                continue
            flag = {"help": f.metadata["doc"], **f.metadata["cli"]}
            if f.name in choices:
                flag["choices"] = choices[f.name]
            if auto and f.name in ("tile", "steps"):
                flag["type"] = int_or_auto
                flag["help"] += ", or 'auto' for the tuner"
            parser.add_argument(
                f"--{f.name}", default=defaults.get(f.name, f.default), **flag
            )

    @classmethod
    def from_args(cls, args, **overrides) -> "RunConfig":
        """The config a parsed command line describes: every knob the
        namespace carries, then ``overrides`` (what the command derives
        from its own flags, e.g. ``mode`` from ``--execute``); flags the
        chosen implementation has no use for are ignored."""
        knobs = {
            f.name: getattr(args, f.name)
            for f in fields(cls) if hasattr(args, f.name)
        }
        return cls(**applicable({**knobs, **overrides}))


def knob_names(face: str | None = None, role: str | None = None) -> tuple[str, ...]:
    """Knob names in declaration order, filtered like
    :meth:`RunConfig.knobs`."""
    return tuple(
        f.name for f in fields(RunConfig)
        if (face is None or face in f.metadata["faces"])
        and (role is None or f.metadata["role"] == role)
    )



def knob_table() -> str:
    """Every knob as a markdown table; README.md and docs/architecture.md
    embed it verbatim (``tests/test_cli.py`` keeps them in step)."""
    rows = ["| knob | default | shapes | also set via | meaning |",
            "|---|---|---|---|---|"]
    for f in fields(RunConfig):
        m = f.metadata
        via = m["faces"] + (("flag",) if m["cli"] is not None else ())
        rows.append(f"| `{f.name}` | `{f.default!r}` | {m['role']} | "
                    f"{', '.join(via) or '-'} | {m['doc']} |")
    return "\n".join(rows)


__all__ = [
    "ANSWER",
    "APPLIES",
    "BACKENDS",
    "IMPLEMENTATIONS",
    "MODES",
    "RunConfig",
    "SCHEDULE",
    "SERVE",
    "SWEEP",
    "applicable",
    "applies",
    "default_tile",
    "int_or_auto",
    "knob_names",
    "knob_table",
]
