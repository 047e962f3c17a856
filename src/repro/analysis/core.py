"""Engine of the ``repro-ssd lint`` static analyzer.

The simulator's headline guarantees — bit-identical parallel replay, a
sound content-addressed result cache, and modelled latencies that never
mix with host wall time — are *conventions* unless something checks
them.  This package turns the conventions into AST-level rules that run
over ``src/repro`` in CI (see :mod:`repro.analysis.determinism`,
:mod:`repro.analysis.schema`, :mod:`repro.analysis.config_literals` for
the rules themselves).

The engine here is deliberately small:

* :class:`SourceFile` — one parsed module plus its suppression comments
  (``# repro-lint: disable=RULE`` on the offending line,
  ``# repro-lint: disable-file=RULE`` anywhere in the file);
* :class:`Rule` — base class with per-file and per-project hooks;
* :func:`run_lint` — walk a package tree, run every rule, drop
  suppressed findings, and fingerprint the survivors so the baseline
  file can match them across unrelated line-number drift;
* :func:`walk` — ``ast.walk`` without its per-node generator stack (the
  same nodes, in the same order), the one tree walk every rule uses.
"""

from __future__ import annotations

import ast
import hashlib
import re
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator, Sequence,
                    TypeVar, cast)

if TYPE_CHECKING:
    from .callgraph import ProjectIndex

T = TypeVar("T")

#: ``# repro-lint: disable=D001`` / ``disable=D001,S002`` on a line
#: suppresses those rules for violations reported *on that line*.
_SUPPRESS_LINE = re.compile(
    r"#\s*repro-lint:\s*disable=([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)")
#: ``# repro-lint: disable-file=D003`` anywhere suppresses for the file.
_SUPPRESS_FILE = re.compile(
    r"#\s*repro-lint:\s*disable-file=([A-Z]\d{3}(?:\s*,\s*[A-Z]\d{3})*)")

#: Rule id used for files the parser rejects.
PARSE_ERROR_RULE = "E999"


#: ``try`` statement classes: 3.11's ``except*`` (``ast.TryStar``) has
#: the same fields as ``ast.Try``, so flow passes handle both alike.
TRY_STATEMENTS: tuple[type[ast.Try], ...] = tuple(
    cls for cls in (ast.Try, getattr(ast, "TryStar", None)) if cls)


def walk(node: ast.AST) -> Iterator[ast.AST]:
    """Every node under ``node`` (itself included), as ``ast.walk`` yields
    them: the same nodes in the same breadth-first order.

    Reads ``_fields`` directly instead of stacking the
    ``iter_child_nodes``/``iter_fields`` generators per node, which
    makes a whole-tree walk about twice as fast.  No field is skipped
    by name: which fields hold nodes differs between Python versions
    (3.12's ``TypeAlias.name`` is a ``Name``).
    """
    todo = [node]
    for current in todo:  # the list grows while it is iterated
        for name in current._fields:
            value = getattr(current, name, None)
            if isinstance(value, list):
                for item in value:
                    if isinstance(item, ast.AST):
                        todo.append(item)
            elif isinstance(value, ast.AST):
                todo.append(value)
        yield current


@dataclass(frozen=True)
class Violation:
    """One finding: a rule, a location, and a human-readable message.

    ``fingerprint`` is filled in by the engine — a short hash of the
    rule, the file, and the *text* of the offending line (plus an
    occurrence index for duplicated lines), so baseline entries keep
    matching when unrelated edits shift line numbers.
    """

    rule: str
    path: str  # posix path relative to the linted package root
    line: int  # 1-based
    col: int  # 0-based, as in ``ast`` node offsets
    message: str
    fingerprint: str = ""

    def location(self) -> str:
        """``path:line:col`` prefix used by the text reporter."""
        return f"{self.path}:{self.line}:{self.col}"


@dataclass
class SourceFile:
    """A parsed module and everything rules need to inspect it."""

    path: Path
    relpath: str
    text: str
    lines: list[str]
    tree: ast.Module
    #: ``list(walk(tree))``: whole-module scans iterate this list
    #: instead of walking the tree again.
    nodes: list[ast.AST]
    line_suppressions: dict[int, set[str]]
    file_suppressions: set[str]

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceFile":
        """Parse ``path``; raises :class:`SyntaxError` on broken source."""
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        lines = text.splitlines()
        line_supp: dict[int, set[str]] = {}
        file_supp: set[str] = set()
        for lineno, line in enumerate(lines, start=1):
            if "repro-lint" not in line:
                continue
            m = _SUPPRESS_LINE.search(line)
            if m:
                ids = {part.strip() for part in m.group(1).split(",")}
                line_supp.setdefault(lineno, set()).update(ids)
            m = _SUPPRESS_FILE.search(line)
            if m:
                file_supp.update(part.strip() for part in m.group(1).split(","))
        return cls(path=path, relpath=path.relative_to(root).as_posix(),
                   text=text, lines=lines, tree=tree,
                   nodes=list(walk(tree)), line_suppressions=line_supp,
                   file_suppressions=file_supp)

    def suppressed(self, violation: Violation) -> bool:
        """Whether a suppression comment covers ``violation``."""
        if violation.rule in self.file_suppressions:
            return True
        return violation.rule in self.line_suppressions.get(violation.line, ())

    def line_text(self, lineno: int) -> str:
        """Source text of a 1-based line ('' when out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


@dataclass(frozen=True, eq=False)
class ProjectContext:
    """Inputs for rules that look at the tree as a whole (U-, M-, K-, P-rules).

    One context lives for one engine run.  It owns the run's
    :class:`~repro.analysis.callgraph.ProjectIndex` (:attr:`index`) and
    a memo of whole-tree analyses (:meth:`shared`), so the rules of one
    family share a single pass and the four interprocedural passes share
    a single index.
    """

    #: Directory being linted — normally ``src/repro``.
    package_root: Path
    #: Every successfully parsed module, keyed by relpath — the input to
    #: project-wide dataflow (empty for rules that never look at it).
    sources: dict[str, SourceFile] = field(default_factory=dict)
    _memo: dict[Callable[["ProjectContext"], object], object] = field(
        default_factory=dict, init=False, repr=False)

    def shared(self, build: Callable[["ProjectContext"], T]) -> T:
        """``build(self)``, computed on first use and kept for the run."""
        if build not in self._memo:
            self._memo[build] = build(self)
        return cast(T, self._memo[build])

    @property
    def index(self) -> "ProjectIndex":
        """The run's symbol table and call graph, built on first use.

        Passes only read it (its typing memos fill on first use), so one
        build serves all of them; a run whose rules need no index builds
        none.
        """
        return self.shared(_build_index)


def _build_index(ctx: ProjectContext) -> "ProjectIndex":
    from .callgraph import ProjectIndex  # late import: callgraph imports core
    return ProjectIndex.build(ctx.sources)


class ProjectPass:
    """A whole-tree pass whose findings one rule family reports.

    Built once per run by :meth:`ProjectContext.shared`: a subclass
    analyses in ``__init__`` and reports through :meth:`emit`, and each
    rule of the family picks its own id out of :meth:`findings`.
    """

    def __init__(self, ctx: ProjectContext) -> None:
        self.sources = ctx.sources
        self.index = ctx.index
        self.violations: list[Violation] = []
        self._emitted: set[tuple[str, str, int, int, str]] = set()

    def emit(self, rule: str, relpath: str, node: ast.AST,
             message: str) -> None:
        """Record one finding; an exact repeat is dropped."""
        lineno = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        key = (rule, relpath, lineno, col, message)
        if key not in self._emitted:
            self._emitted.add(key)
            self.violations.append(
                Violation(rule, relpath, lineno, col, message))

    def findings(self, rule: str) -> Iterator[Violation]:
        """The findings of one rule, in the order they were emitted."""
        return (v for v in self.violations if v.rule == rule)


class Rule:
    """Base class: subclasses override one of the two hooks."""

    id: str = ""
    title: str = ""

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        """Per-file findings (most rules)."""
        return iter(())

    def check_project(self, ctx: ProjectContext) -> Iterator[Violation]:
        """Whole-tree findings (the interprocedural families)."""
        return iter(())


@dataclass
class LintResult:
    """Everything one analyzer run produced."""

    violations: list[Violation] = field(default_factory=list)
    files_checked: int = 0
    rules_run: list[str] = field(default_factory=list)

    def counts_by_rule(self) -> dict[str, int]:
        """``{rule_id: violation count}`` over all findings."""
        out: dict[str, int] = {}
        for v in self.violations:
            out[v.rule] = out.get(v.rule, 0) + 1
        return out


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for an Attribute/Name chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def iter_python_files(root: Path) -> Iterator[Path]:
    """Every ``*.py`` under ``root`` (or ``root`` itself), sorted."""
    if root.is_file():
        yield root
        return
    for path in sorted(root.rglob("*.py")):
        if "__pycache__" in path.parts:
            continue
        yield path


def fingerprint(rule: str, path: str, line_text: str, occurrence: int) -> str:
    """Stable 16-hex id of one violation.

    Keyed on the offending line's *text*, not its number, so inserting
    unrelated lines above does not orphan a baseline entry; duplicate
    lines are disambiguated by their occurrence index.
    """
    blob = f"{rule}\x00{path}\x00{line_text.strip()}\x00{occurrence}"
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


def _assign_fingerprints(violations: list[Violation],
                         sources: dict[str, SourceFile]) -> list[Violation]:
    seen: dict[tuple[str, str, str], int] = {}
    out = []
    for v in violations:
        src = sources.get(v.path)
        text = src.line_text(v.line) if src is not None else ""
        key = (v.rule, v.path, text.strip())
        occ = seen.get(key, 0)
        seen[key] = occ + 1
        out.append(replace(v, fingerprint=fingerprint(v.rule, v.path, text, occ)))
    return out


def run_lint(package_root: "Path | str",
             rules: "Sequence[Rule] | None" = None,
             select: "Iterable[str] | None" = None,
             only: "set[str] | None" = None) -> LintResult:
    """Run the analyzer over one package tree.

    Parameters
    ----------
    package_root:
        Directory whose ``*.py`` files are checked; violation paths are
        relative to it.
    rules:
        Rule instances to run; defaults to :data:`repro.analysis.ALL_RULES`.
    select:
        Optional whitelist of rule ids (``U001``) and/or family prefixes
        (``U`` selects every ``U``-rule, ``S`` every ``S``-rule).
    only:
        Optional set of package-root-relative posix paths to *report* on
        (the ``--changed-only`` scope).  Every file is still parsed and
        fed to project-wide rules — interprocedural dataflow must see
        the whole tree — but per-file rules skip unlisted files and
        project findings on unlisted files are dropped.
    """
    from . import ALL_RULES  # late import: rules import this module

    package_root = Path(package_root)
    active = list(rules) if rules is not None else list(ALL_RULES)
    if select is not None:
        known = {r.id for r in active}
        wanted: set[str] = set()
        unknown: list[str] = []
        for item in select:
            if item in known:
                wanted.add(item)
                continue
            family = {rid for rid in known if item and rid.startswith(item)}
            if family:
                wanted.update(family)
            else:
                unknown.append(item)
        if unknown:
            raise ValueError(f"unknown rule ids: {sorted(set(unknown))}")
        active = [r for r in active if r.id in wanted]

    sources: dict[str, SourceFile] = {}
    violations: list[Violation] = []
    files_checked = 0
    for path in iter_python_files(package_root):
        files_checked += 1
        try:
            src = SourceFile.load(path, package_root)
        except SyntaxError as exc:
            rel = path.relative_to(package_root).as_posix()
            if only is not None and rel not in only:
                continue
            violations.append(Violation(
                PARSE_ERROR_RULE, rel, exc.lineno or 1, (exc.offset or 1) - 1,
                f"could not parse: {exc.msg}"))
            continue
        sources[src.relpath] = src
        if only is not None and src.relpath not in only:
            continue
        for rule in active:
            for v in rule.check_file(src):
                if not src.suppressed(v):
                    violations.append(v)

    ctx = ProjectContext(package_root=package_root, sources=sources)
    for rule in active:
        for v in rule.check_project(ctx):
            if only is not None and v.path not in only:
                continue
            src = sources.get(v.path)
            if src is None or not src.suppressed(v):
                violations.append(v)

    violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
    violations = _assign_fingerprints(violations, sources)
    return LintResult(violations=violations, files_checked=files_checked,
                      rules_run=[r.id for r in active])
