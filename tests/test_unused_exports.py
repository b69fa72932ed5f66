"""``tools/unused_exports.py``: every module of ``src/repro`` has an
importer outside the tests, examples and docs -- lazy package
re-exports count -- and a solve imports only the modules it runs."""

from __future__ import annotations

import os
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tools"))
import unused_exports  # noqa: E402


def test_no_module_lacks_an_importer():
    assert unused_exports.orphan_modules() == []


def _write(root: pathlib.Path, relative: str, text: str = "") -> None:
    path = root / relative
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)


def test_reexports_count_only_when_imported_through_the_package(tmp_path):
    _write(tmp_path, "src/repro/__init__.py")
    _write(tmp_path, "src/repro/pkg/__init__.py",
           "from .used import Used\nfrom .reexported import Reexported\n"
           "from .helper import helper\n"
           "__all__ = ['Used', 'Reexported']\n")
    _write(tmp_path, "src/repro/pkg/used.py", "class Used: ...\n")
    _write(tmp_path, "src/repro/pkg/reexported.py", "class Reexported: ...\n")
    _write(tmp_path, "src/repro/pkg/helper.py", "def helper(): ...\n")
    _write(tmp_path, "src/repro/pkg/selfish.py", "from .selfish import x\n")
    _write(tmp_path, "src/repro/tested.py")
    _write(tmp_path, "src/repro/other/__init__.py")
    _write(tmp_path, "src/repro/other/caller.py",
           "from ..pkg import Used\nfrom .. import tool\n")
    _write(tmp_path, "src/repro/tool.py")
    _write(tmp_path, "benchmarks/bench.py", "import repro.other.caller\n")
    _write(tmp_path, "tests/test_tested.py", "import repro.tested\n")
    assert unused_exports.orphan_modules(tmp_path) == [
        "repro.pkg.reexported", "repro.pkg.selfish", "repro.tested",
    ]


def test_lazy_reexports_count_like_imported_ones(tmp_path):
    _write(tmp_path, "src/repro/__init__.py")
    _write(tmp_path, "src/repro/pkg/__init__.py",
           "_EXPORTS = {**dict.fromkeys(('Used', 'Also'), 'used'),\n"
           "            'alias': 'aliased:original', 'Unasked': 'unasked'}\n"
           "__all__ = ['Used', 'Also', 'alias', 'Unasked']\n")
    _write(tmp_path, "src/repro/pkg/used.py", "class Used: ...\n")
    _write(tmp_path, "src/repro/pkg/aliased.py", "def original(): ...\n")
    _write(tmp_path, "src/repro/pkg/unasked.py", "class Unasked: ...\n")
    _write(tmp_path, "benchmarks/bench.py", "from repro.pkg import Used, alias\n")
    assert unused_exports.orphan_modules(tmp_path) == ["repro.pkg.unasked"]


def test_a_solve_imports_only_what_it_runs():
    """The simulator, the PETSc model, the analytic model, the
    validators, the host measurements and the DOT exporter stay
    unloaded until something asks for them."""
    code = ("import sys, repro.serve, repro.core.runner; "
            "print('\\n'.join(sorted(m for m in sys.modules if m.startswith('repro'))))")
    loaded = set(subprocess.run(
        [sys.executable, "-c", code], check=True, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
    ).stdout.split())
    assert "repro.core.runner" in loaded
    unwanted = {"repro.runtime.engine", "repro.core.petsc_jacobi", "repro.core.analytic",
                "repro.core.verify", "repro.core.validate", "repro.machine.stream",
                "repro.machine.netpipe", "repro.machine.roofline", "repro.exec.compare",
                "repro.runtime.dot"}
    assert sorted(loaded & unwanted) == []
    assert sorted(m for m in loaded if m.startswith("repro.petsclite")) == []
