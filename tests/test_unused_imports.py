"""Conformance guard: every name a ``src/repro`` module imports is used.

An import that nothing reads costs its compile at start-up and tells a
reader about a dependency that is not there.  This AST scan fails on a
name bound by ``import`` or ``from ... import`` in a module under
``src/repro`` when the module never reads it (as a name, the base of an
attribute, inside a string annotation, or in ``__all__``) and no module
of the repo (``src``, ``tests``, ``benchmarks``, ``examples``) imports
it from there.  A package's ``__init__.py`` re-exports its names, so it
is exempt.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
IMPORTERS = ("src", "tests", "benchmarks", "examples")


def module_of(path: Path) -> str:
    """The dotted module ``path`` is imported as."""
    rel = path.relative_to(ROOT / "src" if path.is_relative_to(ROOT / "src")
                           else ROOT).with_suffix("")
    parts = rel.parts[:-1] if rel.name == "__init__" else rel.parts
    return ".".join(parts)


def bound_names(tree):
    """``name -> line`` of each name an import statement binds."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    return bound


def _names_in(node, found):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            found.add(sub.id)
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                _names_in(ast.parse(sub.value, mode="eval"), found)
            except SyntaxError:
                pass


def read_names(tree):
    """Every name the module reads: ``Name`` nodes, names inside string
    annotations, and the strings of ``__all__``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            _names_in(node.annotation, found)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                and node.returns is not None:
            _names_in(node.returns, found)
        elif isinstance(node, ast.AnnAssign):
            _names_in(node.annotation, found)
        elif (isinstance(node, ast.Assign)
              and any(isinstance(t, ast.Name) and t.id == "__all__"
                      for t in node.targets)
              and isinstance(node.value, (ast.List, ast.Tuple))):
            found.update(elt.value for elt in node.value.elts
                         if isinstance(elt, ast.Constant))
    return found


def imported_from(path: Path, tree):
    """``(module, name)`` for each ``from module import name`` in
    ``path``, relative imports resolved."""
    package = module_of(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    for node in ast.walk(tree):
        if not isinstance(node, ast.ImportFrom):
            continue
        if node.level:
            base = package.split(".")
            base = base[:len(base) - node.level + 1]
            module = ".".join(base + ([node.module] if node.module else []))
        else:
            module = node.module
        for alias in node.names:
            yield module, alias.name


def parse(path: Path):
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def unused_imports(modules, importers):
    """``"rel/path.py:line name"`` for each unused import of ``modules``
    (``(path, tree)`` pairs), given every ``importers`` pair."""
    taken = {pair for path, tree in importers
             for pair in imported_from(path, tree)}
    unused = []
    for path, tree in modules:
        if path.name == "__init__.py":
            continue
        module, read = module_of(path), read_names(tree)
        for name, line in sorted(bound_names(tree).items(),
                                 key=lambda item: item[1]):
            if name not in read and (module, name) not in taken:
                unused.append(f"{path.relative_to(ROOT).as_posix()}:{line} "
                              f"{name}")
    return unused


class TestUnusedImports:
    def test_every_imported_name_is_read_or_reexported(self):
        importers = [(path, parse(path)) for top in IMPORTERS
                     for path in sorted((ROOT / top).rglob("*.py"))]
        modules = [(path, tree) for path, tree in importers
                   if path.is_relative_to(SRC)]
        assert modules
        unused = unused_imports(modules, importers)
        assert not unused, "imported, never read:\n  " + "\n  ".join(unused)

    def test_guard_sees_an_unused_import(self):
        """The scanner itself works: a read name, an annotation string, an
        ``__all__`` entry and a re-export pass; a bare import fails."""
        module = SRC / "nic" / "sample.py"
        tree = ast.parse(
            "import os, sys\n"
            "from typing import Optional\n"
            "from .queues import SendQueue, QueueError, Store\n"
            "from . import wqe\n"
            "__all__ = ['QueueError']\n"
            "def f(q: 'Optional[SendQueue]'):\n"
            "    return os.sep\n")
        user = ast.parse("from repro.nic.sample import Store\n")
        assert unused_imports([(module, tree)],
                              [(module, tree), (SRC / "user.py", user)]) == [
            "src/repro/nic/sample.py:1 sys", "src/repro/nic/sample.py:4 wqe"]
