"""The ``tune`` subcommand."""

from repro.cli import main


TINY = ["--n", "96", "--nodes", "4", "--iterations", "4"]


def test_tune_cold_then_warm(tmp_path, capsys):
    cache = str(tmp_path / "tuning.json")
    argv = ["tune", "--machine", "nacl", "--impl", "ca-parsec",
            *TINY, "--budget", "6", "--cache-path", cache]
    assert main(argv) == 0
    cold = capsys.readouterr().out
    assert "source: search" in cold
    assert "halving schedule" in cold
    assert "best: tile=" in cold
    # Warm: same command answers from the cache with zero runs.
    assert main(argv) == 0
    warm = capsys.readouterr().out
    assert "source: cache -- 0 of 6 budgeted runs used" in warm


def test_tune_no_cache_and_csv(tmp_path, capsys):
    csv_path = tmp_path / "trials.csv"
    rc = main(["tune", *TINY, "--budget", "4", "--no-cache",
               "--csv-out", str(csv_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "source: search" in out
    header = csv_path.read_text().splitlines()[0]
    assert "tile" in header and "gflops" in header


def test_tune_budget_zero_reports_model(capsys):
    rc = main(["tune", *TINY, "--budget", "0", "--no-cache"])
    assert rc == 0
    assert "source: model" in capsys.readouterr().out


def test_tune_wide_searches_policies(capsys):
    rc = main(["tune", *TINY, "--budget", "4", "--no-cache", "--wide",
               "--seed", "2"])
    assert rc == 0
    assert "best: tile=" in capsys.readouterr().out

