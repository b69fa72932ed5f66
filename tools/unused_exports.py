#!/usr/bin/env python
"""Exports without a consumer: ROADMAP item 5f as a number.

    python tools/unused_exports.py

Prints every public top-level ``def``/``class`` of ``src/repro`` whose
name appears in no ``.py``/``.md`` file under ``src benchmarks examples
tests docs`` other than its own module and the ``__init__.py``
re-export lists, then their count.  It matches words, not bindings, so
a same-named thing elsewhere hides a dead export: the list can only
under-report.  Informational -- it always exits 0.
"""

from __future__ import annotations

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "benchmarks", "examples", "tests", "docs")


def main() -> None:
    words = {
        path: set(re.findall(r"\w+", path.read_text(errors="ignore")))
        for folder in SEARCHED for path in (ROOT / folder).rglob("*")
        if path.suffix in (".py", ".md") and path.name != "__init__.py"
    }
    files_naming = Counter(word for found in words.values() for word in found)
    unused = [
        f"{module.relative_to(ROOT)}::{node.name}"
        for module in sorted((ROOT / "src" / "repro").rglob("*.py"))
        for node in ast.parse(module.read_text()).body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        # named by no file, or by its own module only
        and files_naming[node.name] == int(node.name in words.get(module, ()))
    ]
    print("\n".join(unused))
    print(f"{len(unused)} exports without a consumer")


if __name__ == "__main__":
    main()
