"""Analysis helpers: Gantt rendering, occupancy, tables, CSV export."""

import pytest

from repro.analysis import csvio
from repro.analysis.gantt import legend, render_gantt
from repro.analysis.occupancy import (
    compare_occupancy,
    kind_summary,
    occupancy_report,
    utilisation_timeline,
)
from repro.analysis.tables import dicts_to_table, format_markdown, format_table
from repro.runtime.trace import Trace


def busy_trace():
    t = Trace()
    t.record(0, 0, "interior", 0.0, 4.0)
    t.record(0, 1, "boundary", 0.0, 2.0)
    t.record(0, 1, "boundary", 3.0, 4.0)
    t.record(0, -1, "send", 1.0, 1.5)
    return t


def idle_trace():
    t = Trace()
    t.record(0, 0, "interior", 0.0, 1.0)
    t.record(0, 1, "boundary", 3.0, 4.0)
    return t


def test_render_gantt_lanes_and_glyphs():
    out = render_gantt(busy_trace(), node=0, width=8)
    lines = out.splitlines()
    assert len(lines) == 4  # header + comm + 2 workers
    assert any(line.startswith(" comm") for line in lines)
    w0 = next(line for line in lines if line.startswith("  w00"))
    assert "#" in w0 and "." not in w0.split("|")[1]
    w1 = next(line for line in lines if line.startswith("  w01"))
    assert "B" in w1 and "." in w1  # idle gap visible


def test_render_gantt_empty_and_validation():
    assert render_gantt(Trace(), 0) == "(empty trace)"
    with pytest.raises(ValueError):
        render_gantt(busy_trace(), 0, width=0)
    assert "idle" in legend()


def test_occupancy_report():
    rep = occupancy_report(busy_trace(), node=0, workers=2)
    assert rep.occupancy == pytest.approx(7.0 / 8.0)
    assert rep.median_boundary_s == pytest.approx(1.5)
    assert rep.mean_task_s == pytest.approx(7.0 / 3.0)
    assert rep.makespan_s == 4.0
    assert len(rep.as_row()) == 5


def test_compare_occupancy():
    comp = compare_occupancy(idle_trace(), busy_trace(), node=0, workers=2)
    assert comp["ca_occupancy"] > comp["base_occupancy"]
    assert comp["ca_speedup"] == pytest.approx(1.0)  # same makespan
    assert comp["ca_kernel_slowdown"] == pytest.approx(1.5)


def test_kind_summary():
    rows = kind_summary(busy_trace())
    assert rows[0][0] == "interior"  # 4.0 total
    assert rows[1] == ("boundary", 2, 3.0, 1.5)


def test_utilisation_timeline():
    frac = utilisation_timeline(busy_trace(), 0, workers=2, buckets=4)
    assert frac[0] == pytest.approx(1.0)
    assert frac[2] == pytest.approx(0.5)


def test_format_table_alignment_and_rounding():
    out = format_table(("a", "bb"), [(1, 2.34567), (10, 0.5)], title="T")
    lines = out.splitlines()
    assert lines[0] == "T"
    assert "2.346" in out and "0.5" in out
    with pytest.raises(ValueError):
        format_table(("a",), [(1, 2)])


def test_format_markdown():
    out = format_markdown(("x", "y"), [(1, 2)])
    assert out.splitlines()[0] == "| x | y |"
    assert out.splitlines()[2] == "| 1 | 2 |"
    with pytest.raises(ValueError):
        format_markdown(("x",), [(1, 2)])


def test_dicts_to_table():
    out = dicts_to_table([{"a": 1, "b": 2}, {"a": 3, "b": 4}])
    assert "a" in out and "3" in out
    assert dicts_to_table([]) == "(no rows)"


def test_csv_dumps_encodes_scalars_over_the_union_of_keys(tmp_path):
    records = [{"impl": "ca-parsec", "overlap": True, "note": None},
               {"impl": "petsc", "overlap": False, "gflops": 6.25}]
    path = tmp_path / "records.csv"
    text = csvio.write_csv(records, str(path))
    assert path.read_bytes().decode() == text
    assert text.splitlines() == ["impl,overlap,note,gflops",
                                 "ca-parsec,true,,",
                                 "petsc,false,,6.25"]
    assert csvio.dumps([]) == ""
