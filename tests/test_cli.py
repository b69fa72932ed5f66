"""Command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


def test_run_simulate(capsys):
    rc = main(["run", "--impl", "base-parsec", "--machine", "nacl",
               "--nodes", "4", "--n", "576", "--iterations", "5",
               "--tile", "144"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "GFLOP/s" in out and "base-parsec" in out


def test_run_execute_validates(capsys):
    rc = main(["run", "--impl", "ca-parsec", "--n", "48", "--iterations", "6",
               "--tile", "12", "--steps", "4", "--execute"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max |error| vs reference: 0.000e+00" in out


def test_run_writes_chrome_trace(tmp_path, capsys):
    path = tmp_path / "t.json"
    rc = main(["run", "--n", "288", "--iterations", "4", "--tile", "96",
               "--steps", "4", "--trace-out", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())
    assert doc["traceEvents"]


def test_experiment_list(capsys):
    assert main(["experiment", "list"]) == 0
    out = capsys.readouterr().out
    assert "fig7" in out and "headlines" in out


def test_experiment_table1(capsys):
    assert main(["experiment", "table1"]) == 0
    out = capsys.readouterr().out
    assert "9,814.2" in out and "paper (MB/s)" in out


def test_experiment_roofline(capsys):
    assert main(["experiment", "roofline"]) == 0
    assert "paper brackets" in capsys.readouterr().out


def test_experiment_unknown():
    with pytest.raises(KeyError):
        main(["experiment", "fig99"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_run_threads_backend(capsys):
    rc = main(["run", "--impl", "ca-parsec", "--n", "48", "--iterations", "6",
               "--tile", "12", "--steps", "3", "--backend", "threads",
               "--jobs", "2", "--execute"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "worker threads" in out and "ms wall" in out
    assert "max |error| vs reference: 0.000e+00" in out


def test_run_threads_writes_chrome_trace(tmp_path, capsys):
    path = tmp_path / "wall.json"
    rc = main(["run", "--n", "48", "--iterations", "4", "--tile", "12",
               "--steps", "2", "--backend", "threads", "--jobs", "2",
               "--trace-out", str(path)])
    assert rc == 0
    doc = json.loads(path.read_text())
    assert any(e.get("ph") == "X" for e in doc["traceEvents"])


# -- the serving face ----------------------------------------------------


def test_serve_synthetic_traffic(capsys):
    rc = main(["serve", "--n", "48", "--iterations", "3", "--tile", "12",
               "--requests", "4", "--tenants", "2", "--workers", "2",
               "--interval", "0.2"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "serve summary" in out
    assert "result cache hit-rate" in out
    assert "tenant-a" in out and "tenant-b" in out
    assert "0 rejected, 0 failed" in out


def test_submit_repeat_hits_disk_cache(tmp_path, capsys):
    args = ["submit", "--n", "48", "--iterations", "3", "--tile", "12",
            "--cache-dir", str(tmp_path)]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "served by      cold worker" in first
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "served by      result cache" in second
    assert "tasks executed 0" in second
    # bit-identical signature across invocations (same content key)
    sig_line = [l for l in first.splitlines() if l.startswith("signature")]
    assert sig_line[0] in second


def test_submit_no_cache_always_executes(tmp_path, capsys):
    args = ["submit", "--n", "48", "--iterations", "3", "--tile", "12",
            "--no-cache"]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "served by      cold worker" in out


def test_stats_section_serve_writes_and_checks_baseline(tmp_path, capsys):
    base = tmp_path / "serve-base.json"
    rc = main(["stats", "--section", "serve", "--n", "48", "--iterations",
               "3", "--tile", "12", "--impl", "base-parsec",
               "--write-baseline", str(base)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "serve summary" in out and base.exists()
    doc = json.loads(base.read_text())
    assert doc["kind"] == "serve-baseline"
    # This test is about the write -> check plumbing, so the verdict
    # rests on the deterministic serving rates: the wall-clock p95s of
    # two back-to-back 48^2 runs are noise at any tolerance.
    rates = ("serve_cache_hit_rate", "serve_warm_start_rate")
    doc["metrics"] = {name: doc["metrics"][name] for name in rates}
    base.write_text(json.dumps(doc))
    rc = main(["stats", "--section", "serve", "--n", "48", "--iterations",
               "3", "--tile", "12", "--impl", "base-parsec",
               "--check", str(base), "--tolerance", "0.5"])
    out = capsys.readouterr().out
    for name in rates:
        assert f"ok   {name}" in out
    assert "PASS: 2/2 gated metrics" in out
    assert rc == 0


# -- one description of a run: the flags are RunConfig's -----------------

#: Every subcommand that describes a run (or a served solve) with flags,
#: with the extra argv it cannot parse without.
RUN_SHAPED = {
    "run": [], "stats": [], "trace-diff": [],
    "chaos": ["--plan", "kill:node=1,step=1"],
    "serve": [], "submit": [], "slo": [],
}
#: A non-default value per knob flag, so a mis-wired flag cannot hide
#: behind a default.
FLAG_VALUES = {"impl": "ca-parsec", "tile": 12, "steps": 2, "ratio": 0.5,
               "policy": "fifo", "backend": "threads", "jobs": 1}


@pytest.mark.parametrize("command", RUN_SHAPED)
def test_run_shaped_flags_are_runconfig_knobs(command):
    """Drift guard: a run-shaped subcommand's knob flags are exactly
    the like-named RunConfig fields, and the parsed command line runs
    to the same ``RunResult.params`` as the keyword call."""
    from repro import JacobiProblem, nacl, run
    from repro.core.config import RunConfig, knob_names

    parser = build_parser()
    sub = parser._subparsers._group_actions[0].choices[command]
    dests = {a.dest for a in sub._actions}
    given = {k: v for k, v in FLAG_VALUES.items()
             if k in dests and f"--{k}" not in RUN_SHAPED[command]}
    assert {"tile", "steps"} <= set(given)  # it *is* run-shaped
    argv = [command, *RUN_SHAPED[command]]
    for knob, value in given.items():
        argv += [f"--{knob}", str(value)]
    args = parser.parse_args(argv)

    extra = {} if "impl" in given else {"impl": "ca-parsec"}  # trace-diff
    config = RunConfig.from_args(args, **extra)
    assert set(given) <= set(knob_names())
    for knob, value in given.items():
        assert getattr(config, knob) == value, knob
    # the flags the command does not have stay at RunConfig's defaults,
    # unless the command overrides that default on purpose
    untouched = set(knob_names()) - dests - set(extra)
    assert all(getattr(config, k) == getattr(RunConfig, k) for k in untouched)

    problem, machine = JacobiProblem(n=48, iterations=4), nacl(4)
    keywords = {**extra, **given}
    from_flags = run(problem, machine, **config.knobs())
    from_keywords = run(problem, machine=machine, **keywords)
    assert from_flags.params == from_keywords.params
    assert from_flags.to_dict().keys() == from_keywords.to_dict().keys()


def test_flags_an_implementation_has_no_use_for_are_ignored():
    from repro.core.config import RunConfig

    args = build_parser().parse_args(
        ["trace-diff", "--impl-a", "petsc", "--tile", "12"])
    config = RunConfig.from_args(args, impl=args.impl_a)  # ratio flag: 0.2
    assert (config.ratio, config.tile, config.steps) == (1.0, None, 15)


def test_readme_knob_table_is_generated_from_runconfig():
    from pathlib import Path

    from repro.core.config import knob_table

    root = Path(__file__).resolve().parent.parent
    for doc in ("README.md", "docs/architecture.md"):
        assert knob_table() in (root / doc).read_text(), (
            f"{doc}: knob table is stale; paste the output of "
            "`python -c 'from repro.core.config import knob_table; "
            "print(knob_table())'`"
        )


def test_every_subcommand_names_its_consumer():
    """The CLI and docs/architecture.md's *What each ``repro``
    subcommand backs* table list the same subcommands, and every row
    names a consumer: a new subcommand arrives with its reader."""
    from pathlib import Path

    from repro.cli import COMMANDS

    doc = (Path(__file__).resolve().parent.parent
           / "docs" / "architecture.md").read_text()
    section = doc.split("**What each `repro` subcommand backs.**", 1)[1]
    rows = {}
    for line in section.split("\n\n| subcommand |", 1)[1].splitlines()[2:]:
        if not line.startswith("| `"):
            break
        cells = [c.strip() for c in line.strip("|").split(" | ")]
        rows[cells[0].strip("`")] = cells[-1]
    assert set(rows) == set(COMMANDS)
    assert not [name for name, verdict in rows.items()
                if "candidate" in verdict]
