"""An unused-import check of the package's modules, with the standard
library's ``ast``: a name an import binds must be read somewhere in its
module, or the import statement must carry ``# noqa`` (a re-export). A
name read only inside a quoted annotation does not count as read."""

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
    read = {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    return [name for name in bound if name not in read]


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
