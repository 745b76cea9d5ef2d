"""Every imported name is read, and every top-level definition is named elsewhere.

A stdlib ``ast`` pass. An import binding that no expression of its module
reads fails here; ``voxfuse/__init__.py`` is exempt, because its imports are
the package's exports. A module-level function or class of ``src/voxfuse/``
that no file under ``src/``, ``tests/`` or ``perfbench/`` names fails too,
so a fold cannot leave its old helper behind. The package's own export
list does not count as a use.
"""

import ast
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = sorted(p for p in (ROOT / "src" / "voxfuse").glob("*.py") if p.name != "__init__.py")
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))
# every Python file that may name a package definition, the export list aside
READERS = MODULES + sorted((ROOT / "perfbench").rglob("*.py"))


def unused_imports(source: str) -> list[tuple[int, str]]:
    """(line, name) of each import binding that no ``Name`` node in ``source`` reads."""
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in used)


def test_checker_flags_unused_names():
    source = ("from __future__ import annotations\n"
              "import os\nimport numpy as np\nimport a.b\n"
              "from c.d import e as f, g\n"
              "print(g, a.b)\n")
    assert unused_imports(source) == [(2, "os"), (3, "np"), (5, "f")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_import_is_used(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def named(source: str) -> set[str]:
    """Names that ``source`` reads, imports or reaches as an attribute."""
    out = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            out.update(alias.name for alias in node.names)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)  # getattr(module, "name") tables
    return out


def unnamed_definitions(source: str, names: set[str]) -> list[tuple[int, str]]:
    """(line, name) of each module-level function or class of ``source`` not in ``names``."""
    return [(node.lineno, node.name) for node in ast.parse(source).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name not in names]


def test_checker_flags_unnamed_definitions():
    source = "def used():\n    pass\n\n\nclass Orphan:\n    pass\n\n\ndef orphan():\n    used()\n"
    assert unnamed_definitions(source, named(source)) == [(5, "Orphan"), (9, "orphan")]


@cache
def names_in_readers() -> frozenset[str]:
    return frozenset().union(*(named(p.read_text(encoding="utf-8")) for p in READERS))


@pytest.mark.parametrize("path", PACKAGE, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_every_definition_is_named(path):
    assert unnamed_definitions(path.read_text(encoding="utf-8"), names_in_readers()) == []
