"""The exchange plan's lifetime: it lives on the spec that built it."""

import dataclasses
import gc
import weakref

from repro.core.dataflow import build_stencil_graph
from repro.core.spec import StencilSpec
from repro.machine.machine import nacl
from repro.stencil.problem import JacobiProblem


def make_spec(cls=StencilSpec, steps=3):
    spec = StencilSpec.create(JacobiProblem(n=24, iterations=6), nodes=4, tile=4, steps=steps)
    return cls(problem=spec.problem, partition=spec.partition, steps=steps)


class _NoCorners(StencilSpec):
    def corner_block(self, consumer, corner):
        return None


def test_plan_and_tiles_are_built_once_per_spec():
    spec = make_spec()
    assert spec.exchange_plan() is spec.exchange_plan()
    assert spec.tile(2, 3) is spec.tile(2, 3)


def test_equal_specs_with_different_rules_get_different_plans():
    """A cache keyed on the spec's *fields* would hand the subclass the
    real spec's plan (the two compare equal)."""
    real, broken = make_spec(), make_spec(_NoCorners)
    assert dataclasses.astuple(real)[:3] == dataclasses.astuple(broken)[:3]

    def corner_tags(plan):
        return {
            entry.tag
            for phases in plan.values()
            for exchange in phases
            for entry in exchange.incoming
            if entry.tag.startswith("c")
        }

    def corners_cut(spec):
        kernels = build_stencil_graph(spec, nacl(4)).per_tile().kernels
        return {cut.tag for plan in kernels.plans.values() for phase in plan.phases
                for cut in phase.cuts if cut.tag.startswith("c")}

    assert corner_tags(real.exchange_plan()) == {"cNW", "cNE", "cSW", "cSE"}
    assert corner_tags(broken.exchange_plan()) == set()
    # ... and what nobody receives, no kernel cuts.
    assert corners_cut(real) == {"cNW", "cNE", "cSW", "cSE"}
    assert corners_cut(broken) == set()


def test_replace_starts_from_an_empty_table():
    base = make_spec(steps=1)
    base.exchange_plan()
    deep = dataclasses.replace(base, steps=3)
    assert deep.tile(2, 2).pads != base.tile(2, 2).pads  # (2, 2): a node corner
    assert len(deep.exchange_plan()[(0, 0)]) == 3


def test_nothing_outlives_the_spec():
    """No module-level cache pins a partition after its spec is gone
    (a long-lived service builds many)."""
    spec = make_spec()
    spec.exchange_plan()
    partition = weakref.ref(spec.partition)
    del spec
    gc.collect()
    assert partition() is None
