"""Flat-record CSV export.

The benchmark harness prints tables; longer studies want files.  These
helpers write lists of flat dicts (e.g. ``RunResult.to_dict()`` or the
tuner's trial records) as CSV.
"""

from __future__ import annotations

import csv
import io
from typing import Any, Sequence


def _encode(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def dumps(records: Sequence[dict]) -> str:
    """Render records as CSV text; the columns are the union of keys in
    first-seen order."""
    if not records:
        return ""
    fields: list[str] = []
    for rec in records:
        for key in rec:
            if key not in fields:
                fields.append(key)
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=fields)
    writer.writeheader()
    for rec in records:
        writer.writerow({k: _encode(rec.get(k)) for k in fields})
    return buf.getvalue()


def write_csv(records: Sequence[dict], path: str) -> str:
    """Write :func:`dumps` of ``records`` to ``path``; returns the text."""
    text = dumps(records)
    with open(path, "w", newline="") as fh:
        fh.write(text)
    return text
