#!/usr/bin/env python
"""Every metric series with its emitter and its readers: ROADMAP 5(e)'s
"no consumer, no code" as a check.

    python tools/metric_audit.py

Walks ``src/repro`` for ``<registry>.counter(`` / ``.gauge(`` /
``.histogram(`` calls that *create* a series -- a name the module spells
out (a literal, a conditional between literals, an f-string over such a
variable) on a receiver that is not a snapshot -- and then searches
``src`` (other files), ``tests``, ``benchmarks``, ``examples``, ``docs``
and ``BENCH_*.json`` for each name as a whole word.  Prints ``name |
kind | emitted by | read by`` and exits 1 when a series has no reader
outside its emitter and the docs: a catalog row documents a series, it
does not consume it (nor does ``tests/data``: a fixture of everything a
run published would "read" every series forever).
"""

from __future__ import annotations

import ast
import re
import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("counter", "gauge", "histogram")
SEARCHED = ("src", "tests", "benchmarks", "examples", "docs")


def _literals(node: ast.expr, names: dict[str, list[str]]) -> list[str]:
    """The string(s) an expression can evaluate to: a literal, either
    arm of a conditional, a variable assigned one of those (``names``),
    or an f-string over them; ``[]`` when the module does not say."""
    if isinstance(node, ast.Constant):
        return [node.value] if isinstance(node.value, str) else []
    if isinstance(node, ast.IfExp):
        return _literals(node.body, names) + _literals(node.orelse, names)
    if isinstance(node, ast.Name):
        return names.get(node.id, [])
    if isinstance(node, ast.FormattedValue):
        return _literals(node.value, names)
    if isinstance(node, ast.JoinedStr):
        parts = [_literals(value, names) for value in node.values]
        return ["".join(choice) for choice in product(*parts)]
    return []


def _receiver(node: ast.expr) -> str:
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", "")


def emitted(root: Path = ROOT) -> dict[str, tuple[str, set[Path]]]:
    """series name -> (kind, files that create it)."""
    found: dict[str, tuple[str, set[Path]]] = {}
    for path in sorted((root / "src" / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        names = {  # ``kind = "warm" if warm else "cold"`` feeding a name
            target.id: _literals(stmt.value, {})
            for stmt in ast.walk(tree) if isinstance(stmt, ast.Assign)
            for target in stmt.targets if isinstance(target, ast.Name)
        }
        for call in ast.walk(tree):
            if not (isinstance(call, ast.Call) and call.args
                    and isinstance(call.func, ast.Attribute)
                    and call.func.attr in KINDS
                    # a snapshot's .counter("x") / .gauge("x") *reads* x
                    and "snap" not in _receiver(call.func.value).lower()):
                continue
            for name in _literals(call.args[0], names):
                found.setdefault(name, (call.func.attr, set()))[1].add(path)
    return found


def audit(root: Path = ROOT) -> list[tuple[str, str, list[str], list[str]]]:
    """One ``(name, kind, emitted by, read by)`` row per series."""
    files = [p for folder in SEARCHED for p in sorted((root / folder).rglob("*"))
             if p.suffix in (".py", ".md", ".json")
             and p.parent != root / "tests" / "data"]
    words = {p: set(re.findall(r"\w+", p.read_text(errors="ignore")))
             for p in [*files, *sorted(root.glob("BENCH_*.json"))]}
    rows = []
    for name, (kind, emitters) in sorted(emitted(root).items()):
        rows.append((
            name, kind,
            [str(p.relative_to(root)) for p in sorted(emitters)],
            [str(p.relative_to(root)) for p, found in words.items()
             if p not in emitters and name in found],
        ))
    return rows


def main() -> int:
    rows = audit()
    unread = []
    print("| name | kind | emitted by | read by |")
    print("|---|---|---|---|")
    for name, kind, emitters, read_by in rows:
        print(f"| `{name}` | {kind} | {', '.join(emitters)} | "
              f"{', '.join(read_by) or '**nothing**'} |")
        if not [p for p in read_by if not p.startswith("docs/")]:
            unread.append(name)
    print(f"\n{len(rows)} series, {len(unread)} without a reader"
          + (f": {', '.join(unread)}" if unread else ""))
    return 1 if unread else 0


if __name__ == "__main__":
    sys.exit(main())
