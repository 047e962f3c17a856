"""Cost contracts of the lint engine: one tree walk, one index per run.

* :func:`repro.analysis.core.walk` is a drop-in for ``ast.walk``: the
  same nodes in the same order, for every node of every module the
  analyzer is run on, plus a syntax zoo of the rarer statement and
  pattern forms (the 3.11/3.12 forms only where the interpreter parses
  them);
* :attr:`SourceFile.nodes` is exactly that walk of the module, computed
  once at load time, and no analysis module walks a tree with
  ``ast.walk`` behind the engine's back;
* a lint run builds the interprocedural
  :class:`~repro.analysis.callgraph.ProjectIndex` at most once, over the
  whole tree, and not at all when no selected rule needs it.
"""

from __future__ import annotations

import ast
import sys
import textwrap
from pathlib import Path

import pytest

from repro.analysis import run_lint
from repro.analysis.callgraph import ProjectIndex
from repro.analysis.core import (SourceFile, dotted_name, iter_python_files,
                                 walk)

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE_ROOT = REPO_ROOT / "src" / "repro"
ANALYSIS_DIR = PACKAGE_ROOT / "analysis"
ROOTS = ("src/repro", "tests", "perf")

#: Statement, expression and pattern forms the committed tree rarely or
#: never uses; every one of them must walk like ``ast.walk``.
SYNTAX_ZOO = '''
import os.path as osp
from .sibling import name as alias, other

counter = 0


def deco(*args, **kwargs):
    return lambda fn: fn


@deco(1, key="v")
@deco
class Shape(Base, metaclass=Meta, flag=True):
    """Docstring."""
    size: int = 4
    items: "list[int]"

    def area(self, /, scale, *rest, factor=2.0, **extra) -> float:
        global counter
        counter += 1
        total = 0

        def inner():
            nonlocal total
            total += 1
            return total

        first, *middle, last = rest or (1, 2, 3)
        (a, b), c = (1, 2), 3
        self.cells[1:2:3] = [x for x in range(3)]
        view = self.grid[::2, 1:, ...]
        del self.cache[0], view
        assert scale > 0, f"scale {scale!r:>{factor}} at {factor:.{2}f}"
        print(f"{scale=} {self.size:#06x} {'nested' + f'{total}'}")
        return scale * factor if (n := len(rest)) else -n


async def pump(source, sink):
    async with source as src, sink.lock() as _:
        async for chunk in src:
            await sink.write(chunk)
    values = [v async for v in source if await v.ok()]
    return {k: v for k, v in zip(values, values)}, {*values}


def gen(items):
    yield from (i * j for i in items if i for j in range(i) if j % 2)
    pairs = [[i, j] for i in items for j in {k for k in items}]
    mapping = {**dict(pairs), "k": [*items, *pairs]}
    x = yield mapping
    return x


def flow(data, limit):
    for item in data:
        if item is None:
            continue
        elif item < 0:
            break
    else:
        pass
    while limit > 0 and not data or limit is ...:
        limit -= 1
    else:
        limit = 0
    try:
        raise ValueError("bad") from None
    except (ValueError, TypeError) as exc:
        err = exc
    except Exception:
        raise
    else:
        err = None
    finally:
        limit = -limit
    with open(data) as fh, open(limit):
        fh.read()
    return err, 1 < limit <= 3 != 4, ~limit, +limit, not limit


def patterns(command):
    match command:
        case 0 | 1 | 2:
            return "small"
        case None | True:
            return "singleton"
        case -1.5 | 2j | "text" | b"bytes":
            return "value"
        case [first, *rest] if rest:
            return first
        case (x, y, _):
            return x + y
        case {"kind": "move", "to": [int(x), int(y)], **others}:
            return others
        case Point(x=0, y=yy) as point:
            return point, yy
        case Point(1, 2, z=[_, *_]):
            return "class"
        case osp.sep:
            return "dotted value"
        case str() | bytes() as text:
            return text
        case _:
            return None
'''

#: ``except*`` parses from 3.11 on.
SYNTAX_ZOO_311 = '''
def grouped():
    try:
        run()
    except* (ValueError, KeyError) as group:
        handle(group)
    except* OSError:
        raise
    else:
        done()
    finally:
        close()
'''

#: Type-parameter syntax parses from 3.12 on (``TypeAlias.name`` and
#: every ``TypeVar`` bound are nodes).
SYNTAX_ZOO_312 = '''
type Pair[T] = tuple[T, T]
type Plain = int


def first[T: (int, str), *Ts, **P](items: list[T], *args: *Ts) -> T:
    return items[0]


class Box[T: int]:
    def get[U](self, other: U) -> T | U:
        return other
'''


def zoo_sources() -> list[str]:
    """The syntax-zoo snippets the running interpreter can parse."""
    sources = [SYNTAX_ZOO]
    if sys.version_info >= (3, 11):
        sources.append(SYNTAX_ZOO_311)
    if sys.version_info >= (3, 12):
        sources.append(SYNTAX_ZOO_312)
    return sources


def module_paths(root: str) -> list[Path]:
    return list(iter_python_files(REPO_ROOT / root))


def assert_walks_agree(tree: ast.AST) -> None:
    """``walk`` equals ``ast.walk`` from the root and from every node."""
    assert list(walk(tree)) == list(ast.walk(tree))
    for node in ast.walk(tree):
        assert list(walk(node)) == list(ast.walk(node)), ast.dump(node)[:200]


# --------------------------------------------------------------------------
# the walk contract


@pytest.mark.parametrize("root", ROOTS)
def test_walk_matches_ast_walk_on_every_module(root):
    paths = module_paths(root)
    assert paths, f"no modules under {root}"
    for path in paths:
        assert_walks_agree(ast.parse(path.read_text(encoding="utf-8"),
                                     filename=str(path)))


@pytest.mark.parametrize("index", range(3))
def test_walk_matches_ast_walk_on_syntax_zoo(index):
    sources = zoo_sources()
    if index >= len(sources):
        pytest.skip("syntax needs a newer Python")
    tree = ast.parse(textwrap.dedent(sources[index]))
    kinds = {type(node).__name__ for node in ast.walk(tree)}
    if index == 0:
        assert {"Match", "MatchValue", "MatchSingleton", "MatchSequence",
                "MatchMapping", "MatchClass", "MatchStar", "MatchAs",
                "MatchOr", "AsyncFunctionDef", "AsyncFor", "AsyncWith",
                "NamedExpr", "Lambda", "JoinedStr", "FormattedValue",
                "Global", "Nonlocal", "Starred", "Slice",
                "DictComp", "SetComp", "GeneratorExp"} <= kinds
    elif index == 1:
        assert "TryStar" in kinds
    else:
        assert {"TypeAlias", "TypeVar", "TypeVarTuple", "ParamSpec"} <= kinds
    assert_walks_agree(tree)


@pytest.mark.parametrize("root", ROOTS)
def test_source_file_nodes_are_the_walk(root):
    for path in module_paths(root):
        src = SourceFile.load(path, REPO_ROOT / root)
        assert src.nodes == list(ast.walk(src.tree)), src.relpath


def test_source_file_nodes_on_syntax_zoo(tmp_path):
    for i, code in enumerate(zoo_sources()):
        path = tmp_path / f"zoo{i}.py"
        path.write_text(textwrap.dedent(code), encoding="utf-8")
        src = SourceFile.load(path, tmp_path)
        assert src.nodes == list(ast.walk(src.tree))


def test_analysis_modules_do_not_call_ast_walk():
    """Every tree walk in the analyzer goes through ``core.walk`` or a
    ``SourceFile.nodes`` list (checked on the AST, not by text)."""
    offenders = []
    for path in iter_python_files(ANALYSIS_DIR):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and dotted_name(node) == "ast.walk"):
                offenders.append(f"{path.name}:{node.lineno}")
            elif (isinstance(node, ast.ImportFrom) and node.module == "ast"
                    and any(a.name == "walk" for a in node.names)):
                offenders.append(f"{path.name}:{node.lineno}")
    assert offenders == []


def test_analysis_passes_share_one_typed_index():
    """Class and type facts live in ``callgraph.py`` alone (checked on
    the AST): only it reads ``ClassInfo.base_names``, only the engine
    and the index call ``ast.parse``, and no analysis module imports
    another's private names."""
    parsers = {"core.py", "callgraph.py"}
    offenders = []
    for path in iter_python_files(ANALYSIS_DIR):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            where = f"{path.name}:{getattr(node, 'lineno', 0)}"
            if (isinstance(node, ast.Attribute) and node.attr == "base_names"
                    and path.name != "callgraph.py"):
                offenders.append(f"{where} reads .base_names")
            elif (isinstance(node, ast.Call)
                    and dotted_name(node.func) == "ast.parse"
                    and path.name not in parsers):
                offenders.append(f"{where} calls ast.parse")
            elif isinstance(node, ast.ImportFrom) and (
                    node.level > 0
                    or (node.module or "").startswith("repro.analysis")):
                offenders.extend(f"{where} imports {alias.name}"
                                 for alias in node.names
                                 if alias.name.startswith("_"))
    assert offenders == []


# --------------------------------------------------------------------------
# one index per run


@pytest.fixture
def index_builds(monkeypatch):
    """The indexes ``ProjectIndex.build`` returns while the test runs."""
    built: list[ProjectIndex] = []
    original = ProjectIndex.build

    def counting(cls, sources):
        index = original(sources)
        built.append(index)
        return index

    monkeypatch.setattr(ProjectIndex, "build", classmethod(counting))
    return built


def committed_modules() -> set[str]:
    return {path.relative_to(PACKAGE_ROOT).as_posix()
            for path in iter_python_files(PACKAGE_ROOT)}


def test_full_run_builds_one_index_over_every_module(index_builds):
    run_lint(PACKAGE_ROOT)
    assert len(index_builds) == 1
    assert set(index_builds[0].modules) == committed_modules()


def test_per_file_families_build_no_index(index_builds):
    result = run_lint(PACKAGE_ROOT, select=["D", "S", "C", "N"])
    assert result.rules_run
    assert index_builds == []


def test_changed_only_scope_still_indexes_the_whole_tree(index_builds):
    run_lint(PACKAGE_ROOT, only={"units.py", "nand/block.py"})
    assert len(index_builds) == 1
    assert set(index_builds[0].modules) == committed_modules()
