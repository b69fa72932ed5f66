#!/usr/bin/env python
"""Exports without a consumer: ROADMAP item 5f as a number.

    python tools/unused_exports.py [--max N]

Prints every public top-level ``def``/``class`` of ``src/repro`` whose
name appears in no ``.py``/``.md`` file under ``src benchmarks examples
tests docs`` other than its own module and the ``__init__.py``
re-export lists, then their count.  It matches words, not bindings, so
a same-named thing elsewhere hides a dead export: the list can only
under-report.  With ``--max N`` it is a ratchet: exit 1 when the count
exceeds ``N`` (CI passes the count the last PR left; lower it when a
PR lowers the count).
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEARCHED = ("src", "benchmarks", "examples", "tests", "docs")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max", type=int, default=None, metavar="N",
                        help="fail when more than N exports have no consumer")
    args = parser.parse_args()
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
    if args.max is not None and len(unused) > args.max:
        print(f"more than the {args.max} the ratchet allows: use the new "
              "export, make it private, or delete it")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
