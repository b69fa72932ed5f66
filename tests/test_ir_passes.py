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

import numpy as np
import pytest

from repro.core.base_parsec import build_base_graph
from repro.core.ca_parsec import build_ca_graph
from repro.core.runner import run
from repro.ir import (
    CoarsenPass,
    PassContext,
    PassError,
    PASSES,
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
    assert sorted(PASSES) == ["ca", "coarsen"]
    passes = parse_pipeline("ca:steps=3,coarsen:factor=2")
    assert [p.name for p in passes] == ["ca", "coarsen"]
    assert passes[0].steps == 3 and passes[1].factor == 2
    # Canonical spec renders every parameter.
    assert pipeline_spec(passes) == "ca:steps=3,coarsen:factor=2"
    # Equivalent spellings canonicalise identically.
    assert canonical_pipeline("coarsen") == canonical_pipeline("coarsen:factor=4")
    assert canonical_pipeline("") == ""
    assert canonical_pipeline(None) == ""
    assert parse_pipeline([CoarsenPass(), "coarsen:factor=2"])[1].factor == 2


def test_parse_pipeline_rejects_garbage():
    for gone in ("fuse", "latency", "fuze"):
        with pytest.raises(PassError, match="unknown pass .*available: ca, coarsen$"):
            parse_pipeline(gone)
    with pytest.raises(PassError, match="not an integer"):
        parse_pipeline("coarsen:factor=two")
    with pytest.raises(PassError, match=">= 2"):
        parse_pipeline("coarsen:factor=1")
    with pytest.raises(PassError, match="unknown parameters"):
        parse_pipeline("coarsen:depth=3")
    with pytest.raises(PassError, match="unknown pass 'factor=3'"):
        parse_pipeline("coarsen:factor=2,factor=3")  # one parameter per pass
    with pytest.raises(PassError, match="steps"):
        parse_pipeline("ca")  # ca requires steps=<s>
    with pytest.raises(PassError, match="empty"):
        PassManager("")


# -- structural passes ----------------------------------------------------


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
                 passes="coarsen:factor=4", mode="execute")
    rep = result.pass_reports
    census = result.graph.census()
    assert rep.after.remote_messages == census.remote_messages
    assert rep.after.remote_bytes == census.remote_bytes
    assert rep.after.tasks == len(result.graph)
    assert result.params["passes"] == "coarsen:factor=4"


# -- end-to-end equivalence (the tentpole property) -----------------------

#: Two coarsening factors, and coarsening an already coarsened graph
#: (super-tasks of super-tasks, packed payloads of packed payloads).
PIPELINES = ("coarsen:factor=2", "coarsen:factor=4", "coarsen:factor=4,coarsen:factor=2")


@pytest.mark.parametrize("spec", PIPELINES)
def test_pipelines_keep_grids_bit_identical(spec):
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
            passes="coarsen:factor=3",
            backend="processes", procs=2, jobs=2)
    assert np.array_equal(base.grid, r.grid)


def test_pipelines_compose_on_ca_graphs():
    prob = random_problem(n=24, iterations=4, seed=11)
    m = nacl(4)
    base = run(prob, impl="ca-parsec", machine=m, tile=6, steps=2,
               mode="execute")
    r = run(prob, impl="ca-parsec", machine=m, tile=6, steps=2,
            passes="coarsen:factor=2", mode="execute")
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
            passes="coarsen", chaos=chaos, backend="threads", jobs=2)


def test_runner_rejects_bad_pipeline_before_building():
    prob = random_problem(n=16, iterations=3, seed=0)
    with pytest.raises(PassError, match="unknown pass"):
        run(prob, impl="base-parsec", machine=nacl(2), tile=4, passes="bogus")


@pytest.mark.parametrize("gone", ["fuse", "latency"])
def test_a_removed_pass_is_refused_at_every_front_door(gone, monkeypatch, tmp_path, capsys):
    """A service request, a library run and the command line refuse a
    pipeline naming a pass this version lacks with the passes there
    are, before anything is admitted, built or written."""
    from repro.cli import main
    from repro.core import runner
    from repro.serve.request import SolveRequest

    def no_build(*args, **kwargs):
        raise AssertionError("built a graph for a refused pipeline")

    monkeypatch.setattr(runner, "_build", no_build)
    prob = random_problem(n=16, iterations=3, seed=0)
    with pytest.raises(ValueError, match="available: ca, coarsen"):
        SolveRequest(problem=prob, machine=nacl(2), tile=4, passes=gone)
    with pytest.raises(ValueError, match="available: ca, coarsen"):
        run(prob, impl="base-parsec", machine=nacl(2), tile=4, passes=gone)
    trace = tmp_path / "t.json"
    with pytest.raises(SystemExit) as exit_:
        main(["run", "--passes", gone, "--n", "16", "--tile", "4",
              "--trace-out", str(trace)])
    assert exit_.value.code == 2
    assert "available: ca, coarsen" in capsys.readouterr().err
    assert not trace.exists()


def test_ir_metrics_published():
    from repro.obs import MetricRegistry

    prob = random_problem(n=24, iterations=4, seed=0)
    reg = MetricRegistry()
    run(prob, impl="base-parsec", machine=nacl(4), tile=6,
        passes="coarsen:factor=4", metrics=reg)
    snap = reg.snapshot()
    assert snap.counter("ir_pass_applied") == 1
    assert snap.counter("ir_pass_messages_saved", **{"pass": "coarsen"}) > 0
    assert snap.gauge("ir_messages_saved") > 0


def test_candidate_passes_axis():
    from repro.tuning.space import Candidate, SearchSpace, invalid_reason

    prob = random_problem(n=24, iterations=4, seed=0)
    m = nacl(4)
    good = Candidate(tile=6, passes="coarsen:factor=4")
    assert invalid_reason(good, prob, m, "base-parsec") is None
    assert good.run_kwargs("base-parsec")["passes"] == "coarsen:factor=4"
    assert "passes=" in good.label()
    bad = Candidate(tile=6, passes="fuze")
    assert "bad pass pipeline" in invalid_reason(bad, prob, m, "base-parsec")
    ca = Candidate(tile=6, passes="ca:steps=2")
    assert "steps axis" in invalid_reason(ca, prob, m, "base-parsec")
    space = SearchSpace(tiles=(6,), pipelines=("", "coarsen"))
    assert space.size == 2
    assert {c.passes for c in space.all_candidates()} == {"", "coarsen"}


def test_tuning_cache_round_trips_passes(tmp_path):
    from repro.tuning.cache import TuningCache
    from repro.tuning.space import Candidate

    prob = random_problem(n=24, iterations=4, seed=0)
    m = nacl(4)
    cache = TuningCache(tmp_path / "cache.json")
    cand = Candidate(tile=6, steps=2, passes="coarsen:factor=4")
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
        SolveRequest(problem=prob, machine=m, tile=4, passes="coarsen",
                     chaos_plan="kill:node=1,step=1s")


def test_passes_token_normalisation():
    from repro.core.signature import passes_token

    assert passes_token(None) is None
    assert passes_token("") is None
    assert passes_token(" ca:steps=2 , coarsen:factor=4 ") == "ca:steps=2,coarsen:factor=4"
