"""The task-graph IR: the pass spec, invariants, and equivalence.

The load-bearing properties:

* the coarsening pass keeps the solution grid bit-identical on every
  backend (sim execute, threads, processes);
* the census of the executed graph matches the PassReport's "after"
  stats -- the reports are evidence, not estimates;
* ``apply_pass`` refuses rewrites that violate their declared
  invariants.
"""

import numpy as np
import pytest

from repro.core.base_parsec import build_base_graph
from repro.core.runner import run
from repro.ir import (
    CoarsenPass,
    PassError,
    apply_pass,
    canonical_pipeline,
    parse_pipeline,
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
    rewrite = parse_pipeline(" coarsen:factor=2 ")
    assert isinstance(rewrite, CoarsenPass) and rewrite.factor == 2
    # The canonical spec renders the parameter.
    assert rewrite.spec() == "coarsen:factor=2"
    # Equivalent spellings canonicalise identically.
    assert canonical_pipeline("coarsen") == canonical_pipeline("coarsen:factor=4")
    assert canonical_pipeline("coarsen") == "coarsen:factor=4"
    assert parse_pipeline("") is parse_pipeline(None) is None
    assert canonical_pipeline("") is canonical_pipeline(None) is None


def test_parse_pipeline_rejects_garbage():
    for gone in ("fuse", "latency", "fuze", "ca", "ca:steps=2"):
        with pytest.raises(PassError, match="unknown pass .*available: coarsen$"):
            parse_pipeline(gone)
    for several in ("coarsen,coarsen", "coarsen:factor=4,coarsen:factor=2"):
        with pytest.raises(PassError, match="one rewrite.*available: coarsen$"):
            parse_pipeline(several)
    with pytest.raises(PassError, match="one spec string"):
        parse_pipeline(["coarsen"])
    with pytest.raises(PassError, match="not an integer"):
        parse_pipeline("coarsen:factor=two")
    with pytest.raises(PassError, match=">= 2"):
        parse_pipeline("coarsen:factor=1")
    with pytest.raises(PassError, match="unknown parameters"):
        parse_pipeline("coarsen:depth=3")
    with pytest.raises(PassError, match="malformed parameter"):
        parse_pipeline("coarsen:factor")


# -- structural passes ----------------------------------------------------


def test_coarsen_groups_same_level_tasks():
    prob, m, build = small_build()
    before = build.graph.census()
    out, rep = apply_pass(parse_pipeline("coarsen:factor=4"), build)
    after = out.graph.census()
    assert len(out.graph) < len(build.graph)
    assert after.remote_messages < before.remote_messages
    assert after.remote_bytes == before.remote_bytes  # aggregation, not volume
    assert terminal_outputs(out.graph) == terminal_outputs(build.graph)
    assert rep.messages_saved == before.remote_messages - after.remote_messages
    assert rep.notes["super_tasks"] > 0


# -- apply_pass's verification --------------------------------------------


class _EvilPass(GraphPass):
    """Moves a task to another node but claims no message was added."""

    name = "evil"
    preserves = ("remote_messages_not_increased",)

    def apply(self, build):
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
    with pytest.raises(PassError,
                       match="violated invariant 'remote_messages_not_increased'"):
        apply_pass(_EvilPass(), build)


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


@pytest.mark.parametrize("spec", ("coarsen:factor=2", "coarsen:factor=4"))
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


@pytest.mark.parametrize("gone", ["fuse", "latency", "ca:steps=2", "coarsen,coarsen"])
def test_a_removed_pass_is_refused_at_every_front_door(gone, monkeypatch, tmp_path, capsys):
    """A service request, a config, a library run and the command line
    refuse a spec naming a pass this version lacks, or more than one
    pass, with the pass there is, before anything is admitted, built or
    written."""
    from repro.cli import main
    from repro.core import runner
    from repro.core.config import RunConfig
    from repro.serve.request import SolveRequest

    def no_build(*args, **kwargs):
        raise AssertionError("built a graph for a refused spec")

    monkeypatch.setattr(runner, "_build", no_build)
    prob = random_problem(n=16, iterations=3, seed=0)
    with pytest.raises(ValueError, match="available: coarsen$"):
        SolveRequest(problem=prob, machine=nacl(2), tile=4, passes=gone)
    with pytest.raises(ValueError, match="available: coarsen$"):
        RunConfig(impl="base-parsec", tile=4, passes=gone)
    with pytest.raises(ValueError, match="available: coarsen$"):
        run(prob, impl="base-parsec", machine=nacl(2), tile=4, passes=gone)
    trace = tmp_path / "t.json"
    for command in (["run", "--trace-out", str(trace)],
                    ["ir", "--trace-after", str(trace)]):
        with pytest.raises(SystemExit) as exit_:
            main([*command, "--passes", gone, "--n", "16", "--tile", "4"])
        assert exit_.value.code == 2
        assert "available: coarsen" in capsys.readouterr().err
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
    assert "ir_messages_saved" not in snap.data  # one series: the counter


def test_candidate_passes_axis():
    from repro.tuning.space import Candidate, SearchSpace, invalid_reason

    prob = random_problem(n=24, iterations=4, seed=0)
    m = nacl(4)
    good = Candidate(tile=6, passes="coarsen:factor=4")
    assert invalid_reason(good, prob, m, "base-parsec") is None
    assert good.run_kwargs("base-parsec")["passes"] == "coarsen:factor=4"
    assert "passes=" in good.label()
    bad = Candidate(tile=6, passes="fuze")
    assert "bad pass spec" in invalid_reason(bad, prob, m, "base-parsec")
    for gone in ("ca:steps=2", "coarsen,coarsen"):
        reason = invalid_reason(Candidate(tile=6, passes=gone), prob, m, "base-parsec")
        assert "bad pass spec" in reason
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
    # The canonical spelling, so a token can never disagree with it.
    for spec in ("coarsen", " coarsen:factor=4 ", "coarsen:factor=8"):
        assert passes_token(spec) == canonical_pipeline(spec)
    assert passes_token(" coarsen ") == "coarsen:factor=4"
    for gone in ("ca:steps=2", "coarsen,coarsen"):
        with pytest.raises(PassError):
            passes_token(gone)
