"""The automatic-CA transform (the paper's future-work feature): a base
build deepened by the ``ca`` pass, checked against the hand-built
``build_ca_graph`` oracle, and the plan that quantifies it."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.spec import ca_plan
from repro.ir import CAInsertionPass, PassContext, PassError, PassManager
from repro.machine.machine import nacl
from repro.runtime.engine import Engine

from .conftest import random_problem


def base_build(n=24, nodes=4, tile=4, T=6, seed=0):
    prob = random_problem(n=n, iterations=T, seed=seed)
    return build_base_graph(prob, nacl(nodes), tile=tile, with_kernels=False)


def transform(build, steps, nodes=4, with_kernels=True):
    ctx = PassContext(machine=nacl(nodes), with_kernels=with_kernels)
    return PassManager(f"ca:steps={steps}").run(build, ctx)[0]


def test_transform_preserves_problem_and_partition():
    b = base_build()
    ca = transform(b, steps=3, with_kernels=False)
    assert ca.spec.steps == 3
    assert ca.spec.problem is b.spec.problem
    assert ca.spec.partition == b.spec.partition


def test_transform_validation():
    b = base_build()
    with pytest.raises(ValueError):
        replace(b.spec, steps=0)
    with pytest.raises(ValueError, match="smallest tile"):
        replace(b.spec, steps=9)
    with pytest.raises(ValueError):
        build_ca_graph(b.spec.problem, nacl(4), tile=4, steps=0)
    with pytest.raises(PassError, match="steps must be >= 1"):
        transform(b, steps=0)
    with pytest.raises(PassError, match="base"):
        transform(transform(b, steps=2, with_kernels=False), steps=3)
    with pytest.raises(PassError, match="exposing its spec"):
        CAInsertionPass(steps=2).apply("not a build", PassContext(machine=nacl(4)))


def test_transform_raises_typed_error_on_oversized_steps():
    """Regression: steps > min tile dimension must fail in the
    transform itself with a typed error, not leak an untyped
    ValueError out of the spec constructor."""
    b = base_build()  # tile=4, so the smallest tile dimension is 4
    with pytest.raises(PassError, match="smallest tile edge"):
        transform(b, steps=5)
    # The boundary case (steps == min dim) remains legal.
    assert transform(b, steps=4, with_kernels=False).spec.steps == 4


def test_plan_quantifies_replication():
    b = base_build(T=12)
    p = ca_plan(b, transform(b, steps=3, with_kernels=False))
    assert p.steps == 3
    assert p.boundary_tiles == 20 and p.interior_tiles == 16
    assert p.extra_ghost_bytes > 0
    # 24 remote edges per superstep: 24 deep strips + corner blocks vs
    # 24 * 3 base messages (corners weigh heavily on this tiny config).
    assert p.messages_per_superstep > 24
    assert 0.0 < p.messages_saved_fraction < 0.9
    # Deeper steps amortise the corners away.
    deeper = ca_plan(b, transform(b, steps=4, with_kernels=False))
    assert deeper.messages_per_superstep == p.messages_per_superstep
    assert deeper.messages_saved_fraction > p.messages_saved_fraction
    assert deeper.extra_ghost_bytes > p.extra_ghost_bytes


def test_transformed_build_is_numerically_exact():
    prob = random_problem(n=24, iterations=7, seed=5)
    machine = nacl(4)
    base = build_base_graph(prob, machine, tile=4, with_kernels=False)
    ca = transform(base, steps=3)
    rep = Engine(ca.graph, machine, execute=True).run()
    assert np.array_equal(ca.assemble_grid(rep.results), prob.reference_solution())


def test_transformed_build_saves_messages():
    prob = random_problem(n=24, iterations=6, seed=2)
    machine = nacl(4)
    base = build_base_graph(prob, machine, tile=4, with_kernels=False)
    ca = transform(base, steps=3, with_kernels=False)
    assert ca.graph.census().remote_messages < base.graph.census().remote_messages
    assert ca.name == "ca-auto"
