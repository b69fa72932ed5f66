"""The task-graph IR: pass pipelines, invariants, and equivalence.

The load-bearing properties:

* any pipeline of structural passes keeps the solution grid
  bit-identical on every backend (sim execute, threads, processes);
* the census of the executed graph matches the PassReport's "after"
  stats -- the reports are evidence, not estimates;
* the CA-insertion pass reproduces the hand-built CA graph's message
  census exactly;
* the manager refuses rewrites that violate their declared invariants.
"""

import random

import numpy as np
import pytest

from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.runner import run
from repro.ir import (
    FusePass,
    PassContext,
    PassError,
    PassManager,
    canonical_pipeline,
    parse_pipeline,
    pipeline_spec,
    terminal_outputs,
)
from repro.ir.core import GraphPass
from repro.ir.rewrite import clone_task
from repro.machine.machine import nacl
from repro.stencil.cost import KernelCostModel

from .conftest import random_problem


def small_build(n=24, nodes=4, tile=6, T=4, seed=0, with_kernels=True):
    prob = random_problem(n=n, iterations=T, seed=seed)
    m = nacl(nodes)
    return prob, m, build_base_graph(
        prob, m, tile=tile, cost=KernelCostModel(m), with_kernels=with_kernels
    )


# -- spec parsing ---------------------------------------------------------


def test_parse_pipeline_specs():
    passes = parse_pipeline("fuse,coarsen:factor=4,latency:horizon=3,boost=2")
    assert [p.name for p in passes] == ["fuse", "coarsen", "latency"]
    assert passes[1].factor == 4
    assert passes[2].horizon == 3 and passes[2].boost == 2
    # Canonical spec renders every parameter, sorted.
    assert pipeline_spec(passes) == (
        "fuse:max_chain=0,coarsen:factor=4,latency:boost=2,horizon=3"
    )
    # Equivalent spellings canonicalise identically.
    assert canonical_pipeline("coarsen") == canonical_pipeline("coarsen:factor=4")
    assert canonical_pipeline("") == ""
    assert canonical_pipeline(None) == ""
    assert parse_pipeline([FusePass(), "coarsen:factor=2"])[1].factor == 2


def test_parse_pipeline_rejects_garbage():
    with pytest.raises(PassError, match="unknown pass"):
        parse_pipeline("fuze")
    with pytest.raises(PassError, match="not an integer"):
        parse_pipeline("coarsen:factor=two")
    with pytest.raises(PassError, match=">= 2"):
        parse_pipeline("coarsen:factor=1")
    with pytest.raises(PassError, match="unknown parameters"):
        parse_pipeline("fuse:depth=3")
    with pytest.raises(PassError, match="duplicate"):
        parse_pipeline("latency:horizon=2,horizon=3")
    with pytest.raises(PassError, match="steps"):
        parse_pipeline("ca")  # ca requires steps=<s>
    with pytest.raises(PassError, match="empty"):
        PassManager("")


# -- structural passes ----------------------------------------------------


def test_fuse_contracts_single_tile_time_chain():
    # One tile on one node: init -> t0 -> ... -> t_last is a pure chain.
    prob, m, build = small_build(n=12, nodes=1, tile=12, T=5)
    out, report = PassManager("fuse").run(build, PassContext(machine=m, with_kernels=True))
    assert report.passes[0].notes["chains"] == 1
    assert report.passes[0].notes["members_fused"] == 5
    assert len(out.graph) == 1
    # The terminal result slot survives under the root's key.
    assert terminal_outputs(out.graph) == terminal_outputs(build.graph)


def test_fuse_max_chain_caps_component_size():
    prob, m, build = small_build(n=12, nodes=1, tile=12, T=5)
    out, report = PassManager("fuse:max_chain=2").run(
        build, PassContext(machine=m, with_kernels=True)
    )
    assert len(out.graph) == 3  # 6 tasks in chains of <= 2 members + root


def test_coarsen_groups_same_level_tasks():
    prob, m, build = small_build()
    before = build.graph.census()
    out, report = PassManager("coarsen:factor=4").run(
        build, PassContext(machine=m, with_kernels=True)
    )
    after = out.graph.census()
    assert len(out.graph) < len(build.graph)
    assert after.remote_messages < before.remote_messages
    assert after.remote_bytes == before.remote_bytes  # aggregation, not volume
    assert terminal_outputs(out.graph) == terminal_outputs(build.graph)
    rep = report.passes[0]
    assert rep.messages_saved == before.remote_messages - after.remote_messages
    assert rep.notes["super_tasks"] > 0


def test_latency_pass_only_moves_priorities():
    prob, m, build = small_build()
    out, report = PassManager("latency:horizon=2").run(
        build, PassContext(machine=m, with_kernels=True)
    )
    b, a = build.graph.census(), out.graph.census()
    assert (a.remote_messages, a.remote_bytes, a.local_edges) == (
        b.remote_messages, b.remote_bytes, b.local_edges
    )
    assert report.passes[0].notes["reprioritized"] > 0
    boosted = [
        out.graph[t.key].priority - t.priority
        for t in build.graph
        if out.graph[t.key].priority != t.priority
    ]
    assert boosted and all(d > 0 for d in boosted)


# -- the manager's verification -------------------------------------------


class _EvilPass(GraphPass):
    """Moves a task to another node but claims the census is intact."""

    name = "evil"
    preserves = ("remote_census",)

    def apply(self, build, ctx):
        from repro.ir.rewrite import rebuild_graph, with_graph

        tasks = list(build.graph)
        victim = max(tasks, key=lambda t: len(t.inputs))
        rewritten = [
            clone_task(t, node=(t.node + 1) % 2) if t.key == victim.key else t
            for t in tasks
        ]
        return with_graph(build, rebuild_graph(rewritten)), {}


def test_manager_rejects_invariant_violations():
    prob, m, build = small_build(with_kernels=False)
    manager = PassManager([_EvilPass()])
    with pytest.raises(PassError, match="violated invariant 'remote_census'"):
        manager.run(build, PassContext(machine=m))


def test_reports_match_executed_graph():
    prob, m, _ = small_build()
    result = run(prob, impl="base-parsec", machine=m, tile=6,
                 passes="fuse,coarsen:factor=4", mode="execute")
    rep = result.pass_reports
    census = result.graph.census()
    assert rep.after.remote_messages == census.remote_messages
    assert rep.after.remote_bytes == census.remote_bytes
    assert rep.after.tasks == len(result.graph)
    assert result.params["passes"] == "fuse:max_chain=0,coarsen:factor=4"


# -- end-to-end equivalence (the tentpole property) -----------------------

PIPELINE_POOL = (
    "fuse",
    "fuse:max_chain=3",
    "coarsen:factor=2",
    "coarsen:factor=4",
    "latency:horizon=2",
    "latency:horizon=4,boost=3",
)


def _random_pipelines(seed, count):
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        k = rng.randint(1, 3)
        out.append(",".join(rng.sample(PIPELINE_POOL, k)))
    return out


@pytest.mark.parametrize("spec", _random_pipelines(seed=7, count=5))
def test_random_pipelines_keep_grids_bit_identical(spec):
    prob = random_problem(n=24, iterations=4, seed=3)
    m = nacl(4)
    base = run(prob, impl="base-parsec", machine=m, tile=6, mode="execute")
    for backend_kwargs in (
        dict(mode="execute"),
        dict(backend="threads", jobs=2),
    ):
        r = run(prob, impl="base-parsec", machine=m, tile=6, passes=spec,
                **backend_kwargs)
        assert np.array_equal(base.grid, r.grid), (spec, backend_kwargs)
        # Census consistency: the report's "after" is the graph that ran.
        assert (r.pass_reports.after.remote_messages
                == r.graph.census().remote_messages)


def test_pipeline_grids_identical_on_processes_backend():
    prob = random_problem(n=16, iterations=3, seed=5)
    m = nacl(2)
    base = run(prob, impl="base-parsec", machine=m, tile=4, mode="execute")
    r = run(prob, impl="base-parsec", machine=m, tile=4,
            passes="fuse,coarsen:factor=3,latency",
            backend="processes", procs=2, jobs=2)
    assert np.array_equal(base.grid, r.grid)


def test_pipelines_compose_on_ca_graphs():
    prob = random_problem(n=24, iterations=4, seed=11)
    m = nacl(4)
    base = run(prob, impl="ca-parsec", machine=m, tile=6, steps=2,
               mode="execute")
    r = run(prob, impl="ca-parsec", machine=m, tile=6, steps=2,
            passes="coarsen:factor=2,latency", mode="execute")
    assert np.array_equal(base.grid, r.grid)
    assert r.pass_reports.messages_saved >= 0


# -- CA as a pass ---------------------------------------------------------


def test_ca_pass_census_identical_to_transform_build():
    prob, m, build = small_build(n=24, nodes=4, tile=6, T=4)
    ctx = PassContext(machine=m, with_kernels=True)
    by_pass, _ = PassManager("ca:steps=2").run(build, ctx)
    by_hand = build_ca_graph(prob, m, tile=6, steps=2,
                             cost=KernelCostModel(m), with_kernels=True)
    ca, cb = by_pass.graph.census(), by_hand.graph.census()
    assert ca.remote_messages == cb.remote_messages
    assert ca.remote_bytes == cb.remote_bytes
    assert ca.by_pair == cb.by_pair
    assert len(by_pass.graph) == len(by_hand.graph)


def test_ca_pass_grid_matches_hand_built_ca():
    prob = random_problem(n=24, iterations=4, seed=2)
    m = nacl(4)
    hand = run(prob, impl="ca-parsec", machine=m, tile=6, steps=2,
               mode="execute")
    auto = run(prob, impl="base-parsec", machine=m, tile=6,
               passes="ca:steps=2", mode="execute")
    assert np.array_equal(hand.grid, auto.grid)
    assert hand.graph.census().by_pair == auto.graph.census().by_pair


def test_ca_pass_demands_base_build():
    prob, m, build = small_build()
    ctx = PassContext(machine=m, with_kernels=False)
    ca_build, _ = PassManager("ca:steps=2").run(build, ctx)
    with pytest.raises(PassError, match="steps=1"):
        PassManager("ca:steps=2").run(ca_build, ctx)
    with pytest.raises(PassError, match="smallest tile"):
        PassManager("ca:steps=64").run(build, ctx)


# -- runner / tuning / serve integration ----------------------------------


def test_runner_rejects_passes_with_chaos(tmp_path):
    from repro.chaos.harness import ChaosContext
    from repro.chaos.inject import FaultInjector
    from repro.chaos.plan import parse_plan

    prob = random_problem(n=16, iterations=3, seed=0)
    injector = FaultInjector(parse_plan("delay:node=0,step=1,secs=0.001"),
                             workdir=tmp_path)
    chaos = ChaosContext(injector)
    with pytest.raises(ValueError, match="passes and chaos"):
        run(prob, impl="base-parsec", machine=nacl(2), tile=4,
            passes="fuse", chaos=chaos, backend="threads", jobs=2)


def test_runner_rejects_bad_pipeline_before_building():
    prob = random_problem(n=16, iterations=3, seed=0)
    with pytest.raises(PassError, match="unknown pass"):
        run(prob, impl="base-parsec", machine=nacl(2), tile=4, passes="bogus")


def test_ir_metrics_published():
    from repro.obs import MetricRegistry

    prob = random_problem(n=24, iterations=4, seed=0)
    reg = MetricRegistry()
    run(prob, impl="base-parsec", machine=nacl(4), tile=6,
        passes="fuse,coarsen:factor=4", metrics=reg)
    snap = reg.snapshot()
    assert snap.counter("ir_pass_applied") == 2
    assert snap.counter("ir_pass_messages_saved", **{"pass": "coarsen"}) > 0
    assert snap.gauge("ir_messages_saved") > 0


def test_candidate_passes_axis():
    from repro.tuning.space import Candidate, SearchSpace, invalid_reason

    prob = random_problem(n=24, iterations=4, seed=0)
    m = nacl(4)
    good = Candidate(tile=6, passes="fuse,coarsen:factor=4")
    assert invalid_reason(good, prob, m, "base-parsec") is None
    assert good.run_kwargs("base-parsec")["passes"] == "fuse,coarsen:factor=4"
    assert "passes=" in good.label()
    bad = Candidate(tile=6, passes="fuze")
    assert "bad pass pipeline" in invalid_reason(bad, prob, m, "base-parsec")
    ca = Candidate(tile=6, passes="ca:steps=2")
    assert "steps axis" in invalid_reason(ca, prob, m, "base-parsec")
    space = SearchSpace(tiles=(6,), pipelines=("", "fuse"))
    assert space.size == 2
    assert {c.passes for c in space.all_candidates()} == {"", "fuse"}


def test_tuning_cache_round_trips_passes(tmp_path):
    from repro.tuning.cache import TuningCache
    from repro.tuning.space import Candidate

    prob = random_problem(n=24, iterations=4, seed=0)
    m = nacl(4)
    cache = TuningCache(tmp_path / "cache.json")
    cand = Candidate(tile=6, steps=2, passes="fuse,coarsen:factor=4")
    cache.put(m, prob, "sim", "ca-parsec", cand)
    entry = cache.get(m, prob, "sim", "ca-parsec")
    assert cache.candidate_of(entry) == cand
    # Entries written before the passes axis rehydrate with no rewrite.
    del entry["passes"]
    assert cache.candidate_of(entry).passes == ""


def test_serve_request_canonicalises_passes():
    from repro.serve.request import SolveRequest

    prob = random_problem(n=16, iterations=3, seed=0)
    m = nacl(2)
    req = SolveRequest(problem=prob, machine=m, tile=4, passes="coarsen")
    assert req.passes == "coarsen:factor=4"
    plain = SolveRequest(problem=prob, machine=m, tile=4)
    assert req.signature() != plain.signature()
    with pytest.raises(ValueError, match="passes and chaos"):
        SolveRequest(problem=prob, machine=m, tile=4, passes="fuse",
                     chaos_plan="kill:node=1,step=1s")


def test_passes_token_normalisation():
    from repro.core.signature import passes_token

    assert passes_token(None) is None
    assert passes_token("") is None
    assert passes_token(" fuse , coarsen:factor=4 ") == "fuse,coarsen:factor=4"
