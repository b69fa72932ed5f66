#!/usr/bin/env python
"""Exports and modules without a consumer: ROADMAP items 5f and 6f.

    python tools/unused_exports.py [--max N]

Prints two lists.

Exports: every public top-level ``def``/``class`` of ``src/repro``
whose name appears in no ``.py``/``.md`` file under ``src benchmarks
examples tests docs`` other than its own module and the ``__init__.py``
re-export lists, then their count.  It matches words, not bindings, so
a same-named thing elsewhere hides a dead export: the list can only
under-report.  With ``--max N`` it is a ratchet: exit 1 when the count
exceeds ``N`` (CI passes the count the last PR left; lower it when a
PR lowers the count).

Orphan modules: every module under ``src/repro`` that no file under
``src`` (other than the module itself), ``benchmarks`` or ``tools``
imports.  A package ``__init__`` import of a name it lists in
``__all__`` is a re-export, and so is an entry of its lazy ``_EXPORTS``
table (``repro._lazy``): it counts for the module it re-exports from
only when some file imports that name through the package (``from
..ir import PassManager`` is a use of ``ir/pipeline.py``).  Tests,
examples and docs do not count: a module only they import backs no
run, benchmark or command.  Any orphan outside ``ALLOWED_ORPHANS``
makes the script exit 1.
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
IMPORTERS = ("src", "benchmarks", "tools")
#: Modules nothing imports on purpose, each with its reason.
ALLOWED_ORPHANS = {
    "repro.__main__": "the `python -m repro` entry point",
    "repro.core.verify": "the schedule verifier the tests use as an oracle",
}


def _module_name(path: Path, src: Path) -> str:
    """``src/repro/ir/core.py`` -> ``repro.ir.core``; a package's
    ``__init__.py`` -> the package."""
    parts = path.relative_to(src).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imports(tree: ast.Module, package: str | None):
    """``(module, names)`` for every import in ``tree``; relative ones
    are resolved against ``package`` (skipped outside ``src``)."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name, ()
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level:
                if package is None:
                    continue
                anchor = package.rsplit(".", node.level - 1)[0]
                module = f"{anchor}.{module}" if module else anchor
            yield module, tuple(alias.name for alias in node.names)


def _declared_all(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def _lazy_exports(tree: ast.Module, package: str):
    """``(module, (name,), attribute)`` for every entry of the package's
    ``_EXPORTS`` table: name -> ``"sub.module"`` or
    ``"sub.module:attribute"`` (the tables spell groups with
    ``dict.fromkeys``)."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "_EXPORTS" for t in node.targets)):
            table = eval(compile(ast.Expression(node.value), "_EXPORTS", "eval"),
                         {"__builtins__": {}, "dict": dict})
            for name, where in table.items():
                module, _, attribute = where.partition(":")
                yield f"{package}.{module}", name, attribute or name


def orphan_modules(root: Path = ROOT) -> list[str]:
    """Modules of ``src/repro`` no importer uses (see the docstring)."""
    src = root / "src"
    modules = {_module_name(path, src): path for path in (src / "repro").rglob("*.py")}
    parsed = {
        path: ast.parse(path.read_text())
        for folder in IMPORTERS for path in (root / folder).rglob("*.py")
    }
    #: package -> {re-exported name: (module, name) it is imported from}
    reexports: dict[str, dict[str, tuple[str, str]]] = {}
    for name, path in modules.items():
        if path.name == "__init__.py":
            public = _declared_all(parsed[path])
            reexports[name] = {
                alias: (module, alias)
                for module, names in _imports(parsed[path], name)
                for alias in names if alias in public
            }
            reexports[name].update(
                (alias, (module, attribute))
                for module, alias, attribute in _lazy_exports(parsed[path], name)
                if alias in public)

    def sources(module: str, name: str) -> str:
        if f"{module}.{name}" in modules:
            return f"{module}.{name}"
        if name in reexports.get(module, {}):
            return sources(*reexports[module][name])
        return module

    used = set()
    for path, tree in parsed.items():
        own = _module_name(path, src) if path.is_relative_to(src) else None
        package = own if path.name == "__init__.py" else own and own.rpartition(".")[0]
        reexported = reexports.get(own, {})
        for module, names in _imports(tree, package):
            found = ({sources(module, n) for n in names if n not in reexported}
                     if names else {module})
            used |= found - {own}
    return sorted(
        name for name, path in modules.items()
        if path.name != "__init__.py" and name not in used
        and name not in ALLOWED_ORPHANS
    )


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
    status = 0
    if args.max is not None and len(unused) > args.max:
        print(f"more than the {args.max} the ratchet allows: use the new "
              "export, make it private, or delete it")
        status = 1
    orphans = orphan_modules()
    print("\n".join(orphans))
    print(f"{len(orphans)} modules without an importer")
    if orphans:
        print("import each from src/, benchmarks/ or tools/, or delete it")
        status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
