"""Conformance guard: the library imports only itself and the standard
library.

README promises no runtime dependencies beyond the standard library.
This AST scan makes that a tested fact: every ``import`` and
``from ... import`` under ``src/repro`` — at module level or nested in
a function or ``try`` — must name ``repro`` (or be relative) or a
top-level module in :data:`sys.stdlib_module_names`.
"""

import ast
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"


def foreign_imports(tree):
    """``(module, line)`` for each import of something that is neither
    ``repro`` nor the standard library."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            top = name.split(".")[0]
            if top != "repro" and top not in sys.stdlib_module_names:
                yield name, node.lineno


class TestStdlibOnly:
    def test_source_tree_exists(self):
        assert (SRC / "__init__.py").is_file(), f"no package at {SRC}"

    def test_every_import_is_repro_or_stdlib(self):
        offenders = []
        for path in sorted(SRC.rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"),
                             filename=str(path))
            rel = path.relative_to(SRC).as_posix()
            offenders += [f"{rel}:{line} imports {name}"
                          for name, line in foreign_imports(tree)]
        assert not offenders, (
            "src/repro must run on the standard library alone:\n  "
            + "\n  ".join(offenders))

    def test_guard_catches_a_third_party_import(self):
        """The scanner itself works (no false all-clear), including an
        import guarded by ``try``."""
        tree = ast.parse(
            "import os, numpy as np\n"
            "from . import sim\n"
            "from repro.nic import wqe\n"
            "try:\n"
            "    from scipy.stats import norm\n"
            "except ImportError:\n"
            "    norm = None\n")
        assert sorted(foreign_imports(tree)) == [("numpy", 1),
                                                 ("scipy.stats", 5)]
