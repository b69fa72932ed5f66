"""``tools/metric_audit.py``: every series has a reader, and the docs'
catalog tables list exactly the series the code emits."""

from __future__ import annotations

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import metric_audit  # noqa: E402

#: The catalog tables: every markdown table in these files whose first
#: header cell is ``metric``.
CATALOGS = ("docs/observability.md", "docs/serving.md", "docs/chaos.md")


def test_every_series_has_a_reader_outside_its_emitter_and_the_docs():
    rows = metric_audit.audit()
    assert len(rows) > 40  # the walk found the series at all
    unread = [name for name, _kind, _emitters, read_by in rows
              if all(path.startswith("docs/") for path in read_by)]
    assert unread == []


def _cataloged(text: str) -> list[str]:
    """Series named in the first column of the ``metric`` tables
    (``name{labels}`` counts as ``name``)."""
    names, in_catalog = [], False
    for line in text.splitlines():
        if not line.lstrip().startswith("|"):
            in_catalog = False
            continue
        first = line.strip().strip("|").split("|")[0].strip()
        if first == "metric":
            in_catalog = True
        elif in_catalog:
            names += re.findall(r"`(\w+)(?:\{[^`]*\})?`", first)
    return names


def test_catalog_tables_list_exactly_the_emitted_series_once():
    listed: dict[str, list[str]] = {}
    for doc in CATALOGS:
        for name in _cataloged((ROOT / doc).read_text()):
            listed.setdefault(name, []).append(doc)
    emitted = set(metric_audit.emitted())
    assert sorted(emitted - set(listed)) == []  # emitted, in no catalog
    assert sorted(set(listed) - emitted) == []  # a row nothing emits
    assert {n: docs for n, docs in listed.items() if len(docs) > 1} == {}


def test_walk_finds_spelled_out_names_and_skips_snapshot_reads(tmp_path):
    module = tmp_path / "src" / "repro" / "layer.py"
    module.parent.mkdir(parents=True)
    module.write_text(
        'def emit(reg, snapshot, hit, warm):\n'
        '    reg.counter("plain_total", "help").inc()\n'
        '    name = "hits_total" if hit else "misses_total"\n'
        '    reg.counter(name).inc()\n'
        '    kind = "warm" if warm else "cold"\n'
        '    reg.gauge(f"{kind}_starts").set(1)\n'
        '    return snapshot.counter("only_read_total")\n'
    )
    reader = tmp_path / "tests" / "test_layer.py"
    reader.parent.mkdir()
    reader.write_text('assert snap.counter("plain_total") == 1\n')
    found = metric_audit.emitted(tmp_path)
    assert {name: kind for name, (kind, _) in found.items()} == {
        "plain_total": "counter", "hits_total": "counter",
        "misses_total": "counter", "warm_starts": "gauge",
        "cold_starts": "gauge",
    }
    read_by = {name: readers for name, _k, _e, readers in metric_audit.audit(tmp_path)}
    assert read_by["plain_total"] == ["tests/test_layer.py"]
    assert read_by["hits_total"] == []
