"""Trace diffing and the causal CLI faces (stats, trace-diff)."""

import pytest

from repro.cli import main
from repro.core.runner import run
from repro.machine.machine import nacl
from repro.obs.diff import diff_results, diff_traces
from repro.stencil.problem import JacobiProblem

#: A small NaCL configuration where CA measurably removes
#: communication from the critical path (comm-bound at ratio 0.2).
SMALL = dict(n=576, iterations=6, tile=144, steps=3, ratio=0.2, nodes=4)


def small_run(impl, ratio=SMALL["ratio"], **overrides):
    cfg = {**SMALL, **overrides}
    return run(
        JacobiProblem(n=cfg["n"], iterations=cfg["iterations"]),
        impl=impl, machine=nacl(cfg["nodes"]), tile=cfg["tile"],
        steps=cfg["steps"], ratio=ratio, trace=True,
    )


def test_self_diff_is_empty():
    result = small_run("ca-parsec")
    diff = diff_results(result, result, label_a="x", label_b="y")
    assert diff.empty()
    assert diff.makespan_delta == 0.0
    assert diff.comm_share_drop == 0.0
    assert diff.only_a == 0 and diff.only_b == 0
    assert diff.format() == "no differences between x and y"


def test_ca_drops_comm_share_vs_base():
    base = small_run("base-parsec")
    ca = small_run("ca-parsec")
    diff = diff_results(base, ca, label_a="base-parsec", label_b="ca-parsec")
    assert diff.comm_share_drop > 0.0, (
        "CA must put less communication on the critical path than base "
        f"(got {diff.critpath_a.comm_share:.1%} -> "
        f"{diff.critpath_b.comm_share:.1%})"
    )
    text = diff.format()
    assert "comm share of critical path" in text
    assert "base-parsec -> ca-parsec" in text


def test_same_impl_ratio_change_shows_movers():
    slow = small_run("ca-parsec", ratio=1.0)
    fast = small_run("ca-parsec", ratio=0.2)
    diff = diff_results(slow, fast, label_a="r1.0", label_b="r0.2")
    # Same task-key namespace: every compute task matches across runs.
    assert diff.matched > 0
    assert diff.only_a == 0 and diff.only_b == 0
    assert diff.movers, "a 5x kernel-cost change must surface movers"
    # ratio 0.2 makes every kernel cheaper, so the makespan shrinks.
    assert diff.makespan_delta < 0.0
    kinds = {k.kind for k in diff.kinds}
    assert kinds, "per-kind rollup must not be empty"


def test_diff_kind_rollup_totals():
    a = small_run("base-parsec")
    b = small_run("ca-parsec")
    diff = diff_traces(a.trace, b.trace, graph_a=a.graph, graph_b=b.graph)
    for k in diff.kinds:
        assert k.count_a >= 0 and k.count_b >= 0
        assert k.count_a > 0 or k.count_b > 0
        assert k.delta_total == pytest.approx(k.total_b - k.total_a)


def test_diff_results_requires_traces():
    traced = small_run("ca-parsec")
    untraced = run(
        JacobiProblem(n=SMALL["n"], iterations=2), impl="ca-parsec",
        machine=nacl(SMALL["nodes"]), tile=SMALL["tile"],
        steps=SMALL["steps"],
    )
    with pytest.raises(ValueError, match="trace"):
        diff_results(untraced, traced)
    with pytest.raises(ValueError, match="trace"):
        diff_results(traced, untraced)


# -- CLI ------------------------------------------------------------------


CLI_SIZE = ["--machine", "nacl", "--nodes", "4", "--n", "576",
            "--iterations", "6", "--tile", "144", "--steps", "3",
            "--ratio", "0.2"]


def test_cli_trace_diff_assert_comm_drop(capsys):
    rc = main(["trace-diff", *CLI_SIZE, "--assert-comm-drop"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "trace diff: base-parsec -> ca-parsec" in out
    assert "OK:" in out
    assert "less communication on the critical path" in out


def test_cli_trace_diff_same_impl_no_drop(capsys):
    # Diffing an implementation against itself cannot drop comm share;
    # the assertion flag must then fail the command.
    rc = main(["trace-diff", *CLI_SIZE, "--impl-a", "base-parsec",
               "--impl-b", "base-parsec", "--assert-comm-drop"])
    assert rc == 1
    assert "FAIL:" in capsys.readouterr().err


def test_cli_stats_prints_critpath_rows(capsys):
    rc = main(["stats", "--impl", "ca-parsec", *CLI_SIZE])
    assert rc == 0
    out = capsys.readouterr().out
    assert "critical path" in out
    assert "top critical-path segments" in out
