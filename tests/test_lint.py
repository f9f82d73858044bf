"""Unused-name checks of the package's modules, with the standard
library's ``ast``: a name an import binds must be read somewhere in its
module, or the import statement must carry ``# noqa`` (a re-export); and
a private name (``_x``) that a module binds at its top level with ``def``,
``class`` or an assignment must be read somewhere in it. A name read only
inside a quoted annotation does not count as read."""

import ast
from pathlib import Path

import pytest

import mimogen

PACKAGE = Path(mimogen.__file__).resolve().parent


def unused_imports(source: str) -> list[str]:
    """The names that the imports of ``source`` bind and that it never reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1: node.end_lineno]):
            continue
        bound += [alias.asname or alias.name.split(".")[0] for alias in node.names]
    return [name for name in bound if name not in _read(tree)]


def unused_privates(source: str) -> list[str]:
    """The private names that the top level of ``source`` binds with
    ``def``, ``class`` or an assignment and that it never reads."""
    tree = ast.parse(source)
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return [name for name in bound
            if name.startswith("_") and not name.startswith("__") and name not in _read(tree)]


def _read(tree: ast.AST) -> set[str]:
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text()) == []


def test_flags_a_planted_import():
    source = (PACKAGE / "cli.py").read_text()
    planted = source.replace("from .params import KEYS,", "from .params import KEYS, ParamError,")
    assert planted != source
    assert unused_imports(planted) == ["ParamError"]


def test_noqa_marks_a_re_export():
    source = (PACKAGE / "dataset.py").read_text()
    assert unused_imports(source.replace("# noqa", "#")) == ["content_hash"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unread_private_name(module):
    assert unused_privates((PACKAGE / module).read_text()) == []


def test_flags_a_planted_private_function():
    source = (PACKAGE / "rayio.py").read_text()
    planted = source + "\n\ndef _layout(n_paths, size):\n    return n_paths, size\n"
    assert unused_privates(planted) == ["_layout"]
