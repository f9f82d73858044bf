"""Unused-name checks of the package's modules, with the standard
library's ``ast``: a name an import binds must be read somewhere in its
module, or the import statement must carry ``# noqa`` (a re-export); a
private name (``_x``) that a module binds at its top level with ``def``,
``class`` or an assignment must be read somewhere in it; and such a public
name must be read, as a name or as an attribute, somewhere in the code of
``src/``, ``tests/`` or ``bench/``; a function's parameter must be read
in its body; and a parameter with a default must be passed by some call
in those trees. A name read only inside a quoted annotation does not
count as read."""

import argparse
import ast
import functools
import math
from pathlib import Path

import pytest

import mimogen
from mimogen import cli

PACKAGE = Path(mimogen.__file__).resolve().parent
READERS = [PACKAGE.parents[1] / d for d in ("src", "tests", "bench")]


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
    return [name for name in _top_level(tree)
            if name.startswith("_") and not name.startswith("__") and name not in _read(tree)]


def unread_publics(source: str, others: list[Path]) -> list[str]:
    """The public names that the top level of ``source`` binds with
    ``def``, ``class`` or an assignment and that neither it nor any of the
    files ``others`` reads as a name or as an attribute."""
    tree = ast.parse(source)
    read = _read(tree, attributes=True).union(*map(_file_reads, others))
    return [name for name in _top_level(tree) if not name.startswith("_") and name not in read]


def unread_parameters(source: str) -> list[str]:
    """``function.parameter`` for each parameter of a function of
    ``source`` that its body never reads. ``self``, ``cls``, ``_``-prefixed
    and ``*``/``**`` parameters, dunder methods and lambdas are exempt."""
    unread = []
    for node in ast.walk(ast.parse(source)):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name.startswith("__") and node.name.endswith("__")):
            continue
        read = set().union(*map(_read, node.body))
        unread += [f"{node.name}.{a.arg}"
                   for a in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
                   if a.arg not in ("self", "cls") and not a.arg.startswith("_")
                   and a.arg not in read]
    return unread


def unpassed_options(source: str, others: list[Path]) -> list[str]:
    """``function.parameter`` (``Class.method.parameter`` for a method) for
    each parameter with a default of a function, method or constructor of
    ``source`` that no call in it or in the files ``others`` passes, by
    position or by keyword. A call is matched by the name it calls
    (``f(...)`` or ``x.f(...)``), and a call of a class's name reaches its
    ``__init__``; a method's ``self`` or ``cls`` takes no position. A ``*``
    or ``**`` argument passes every parameter. Other dunder methods and
    lambdas are exempt, and so are dataclass field defaults, which no
    ``def`` declares."""
    tree = ast.parse(source)
    methods = {f: cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for f in cls.body if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))}
    calls = _calls(tree).union(*map(_file_calls, others))
    unpassed = []
    for node in ast.walk(tree):
        if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                or node.name.startswith("__") and node.name != "__init__"):
            continue
        owner = methods.get(node)
        called = owner if node.name == "__init__" else node.name
        args = node.args
        positional = [*args.posonlyargs, *args.args]
        if owner and "staticmethod" not in {getattr(d, "id", None) for d in node.decorator_list}:
            positional = positional[1:]
        defaulted = [(at, a.arg) for at, a in enumerate(positional)
                     if at >= len(positional) - len(args.defaults)]
        defaulted += [(math.inf, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
        unpassed += [f"{owner + '.' if owner else ''}{node.name}.{arg}" for at, arg in defaulted
                     if not any(name == called and (n > at or arg in keywords or "**" in keywords)
                                for name, n, keywords in calls)]
    return unpassed


def _calls(tree: ast.AST) -> set[tuple[str, float, frozenset[str]]]:
    """Each call of ``tree`` as the name it calls, the count of its
    positional arguments (infinite with a ``*`` one) and its keywords
    (``**`` for a ``**`` one)."""
    return {(node.func.id if isinstance(node.func, ast.Name) else node.func.attr,
             math.inf if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args),
             frozenset(k.arg or "**" for k in node.keywords))
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def _top_level(tree: ast.Module) -> list[str]:
    bound: list[str] = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.append(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            bound += [t.id for target in targets for t in ast.walk(target)
                      if isinstance(t, ast.Name)]
    return bound


def _read(tree: ast.AST, attributes: bool = False) -> set[str]:
    """The names ``tree`` reads, with ``attributes`` also those it reads as
    an attribute (``x.name``)."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    if attributes:
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return names


@functools.cache
def _file_reads(path: Path) -> set[str]:
    return _read(ast.parse(path.read_text()), attributes=True)


@functools.cache
def _file_calls(path: Path) -> set[tuple[str, float, frozenset[str]]]:
    return _calls(ast.parse(path.read_text()))


def _readers_besides(module: str) -> list[Path]:
    """The code files of ``READERS`` other than the package's ``module``."""
    return [path for root in READERS for path in sorted(root.rglob("*.py"))
            if path != PACKAGE / module]


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


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unread_public_name(module):
    assert unread_publics((PACKAGE / module).read_text(), _readers_besides(module)) == []


def test_flags_a_planted_public_function(tmp_path):
    source = (PACKAGE / "rayio.py").read_text()
    planted = source + "\n\ndef layout_of(n_paths, size):\n    return n_paths, size\n"
    others = _readers_besides("rayio.py")
    assert unread_publics(planted, others) == ["layout_of"]
    reader = tmp_path / "reader.py"            # read as an attribute: in use
    reader.write_text("from mimogen import rayio\n\nrayio.layout_of(1, 2)\n")
    assert unread_publics(planted, [*others, reader]) == []


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unread_parameter(module):
    assert unread_parameters((PACKAGE / module).read_text()) == []


def test_flags_a_planted_parameter():
    source = (PACKAGE / "tracer.py").read_text()
    planted = source.replace("def path_power(length: float, carrier_freq: float,",
                             "def path_power(length: float, n_reflections: int, "
                             "carrier_freq: float,")
    assert planted != source
    exempt = ("\n\nclass Planted:\n"
              "    def step(self, _unused, *args, **kwargs):\n        return lambda x: 0\n\n"
              "    def __exit__(self, kind, value, traceback):\n        pass\n")
    assert unread_parameters(planted + exempt) == ["path_power.n_reflections"]


@pytest.mark.parametrize("module", sorted(p.name for p in PACKAGE.glob("*.py")))
def test_no_unpassed_option(module):
    assert unpassed_options((PACKAGE / module).read_text(), _readers_besides(module)) == []


def test_flags_a_planted_option(tmp_path):
    source = (PACKAGE / "tracer.py").read_text()
    planted = source.replace("def mirror_point(p: Sequence[float], axis: int, offset: float)",
                             "def mirror_point(p: Sequence[float], axis: int, offset: float, "
                             "scale: float = 2.0)")
    assert planted != source
    planted += ("\n\nclass Planted:\n"
                "    def __init__(self, a, b=0, *, c=None):\n        self.a = a\n\n"
                "    @staticmethod\n    def make(a, b=0):\n        return Planted(a, b)\n")
    others = _readers_besides("tracer.py")
    assert sorted(unpassed_options(planted, others)) == [
        "Planted.__init__.c", "Planted.make.b", "mirror_point.scale"]
    caller = tmp_path / "caller.py"     # by keyword, by position, by a * argument
    caller.write_text("Planted(1, c=2).make(1, 2)\nmirror_point(*args)\n")
    assert unpassed_options(planted, [*others, caller]) == []


def test_validate_checks_every_stage_that_writes_a_directory():
    # No subcommand that writes a directory ships without `validate`'s check of it.
    subcommands = next(a for a in cli.build_parser()._actions
                       if isinstance(a, argparse._SubParsersAction)).choices
    writes_a_directory = {name for name, parser in subcommands.items()
                          if any("--out-dir" in a.option_strings for a in parser._actions)}
    assert writes_a_directory == {stage for stage, names, _ in cli._STAGES if names}
    assert [stage for stage, names, _ in cli._STAGES if not names] == ["scene"]
