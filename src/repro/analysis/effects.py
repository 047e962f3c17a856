"""Interprocedural effect & exception-safety dataflow (rules M001–M002).

PR 7's differential suite caught two *torn-state* bugs in the array
kernel: a rejected program had already advanced ``next_page``, and an
empty ``invalidate_many`` corrupted ``pages_with_valid``.  Both are the
same shape — **a state write reachable before a raise-capable
validation** — and both silently break the byte-identity guarantee the
cache/golden stack depends on.  The structure-of-arrays kernel adds a
second invariant: the two ``Block`` facts kept twice — the valid bits
(``valid_mask`` and its occupancy counters beside the
:class:`~repro.nand.state.RegionState` ``valid`` column) and the
lifecycle (``state`` beside ``state_code``) — must update in lock-step
inside the same method.

This module turns both contracts into checked facts on top of the
:class:`~repro.analysis.callgraph.ProjectIndex` symbol table:

* every function gets an **effect summary** — which state attributes /
  array columns it writes (``self.x = …``, ``self.arr[i] = …``, writes
  through local aliases of region columns) and whether any path can
  raise — and the raise/write bits propagate across resolved call edges
  to a fixpoint, as :mod:`repro.analysis.units_flow` does for return
  units;
* a function that *raises but never writes* (``config.validate()``,
  ``Block.verify_array_state``) is a **pure validator**: calling it is a
  validation point, while calling a function that both raises and writes
  is a state *transition* and is deliberately not treated as one;
* two rule families fire on the summaries:

  ======== ========================================================
  ``M001`` a ``nand/``/``ftl/`` method performs a state write that is
           reachable *before* a raise statement or a pure-validator
           call (the PR 7 bug shape: partial mutation on the
           exception path)
  ``M002`` a ``Block`` scalar mirror is written without the paired
           ``RegionState`` column in the same method (or vice versa)
  ======== ========================================================

``__init__`` methods are exempt from both rules: a constructor that
raises discards the half-built object, so torn state is unobservable,
and mirrors initialise against a freshly-zeroed region.  The analysis is
deliberately conservative: unresolved calls are assumed to neither raise
nor write, so unknown code never fires a rule.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator

from .callgraph import FunctionInfo, ModuleInfo
from .core import (TRY_STATEMENTS, ProjectContext, ProjectPass, Rule,
                   Violation, walk)

#: Flat :class:`~repro.nand.state.RegionState` columns (the arrays of
#: the structure-of-arrays kernel).
REGION_COLUMNS = frozenset({
    "valid", "slot_lsn", "slot_time", "slot_program_time",
    "disturb_in", "disturb_nb", "page_updated", "state_code",
})

#: ``Block`` scalar/bitmask mirror -> the ``RegionState`` column it
#: shadows.  Several occupancy mirrors derive from the same column
#: (``n_valid``/``pages_with_valid`` both shadow ``valid``); writing any
#: one of them pairs with that column.
MIRROR_COLUMN: dict[str, str] = {
    "valid_mask": "valid",
    "n_valid": "valid",
    "n_invalid": "valid",
    "pages_with_valid": "valid",
    "state": "state_code",
}

#: Columns that have at least one scalar mirror (the column->mirror
#: direction of M002 only applies to these; ``slot_time`` and the
#: disturb counters are array-only by design).
MIRRORED_COLUMNS = frozenset(MIRROR_COLUMN.values())

#: Watched state written through objects other than ``self`` (for M001's
#: write tracking: ``region.slot_time[j] = now`` in ``nand/flash.py`` is
#: as much a state write as a store inside the block).  The second set
#: is ``Block`` state with no column partner.
WATCHED_ATTRS = (REGION_COLUMNS | frozenset(MIRROR_COLUMN)
                 | frozenset({"prog_mask", "pass_counts", "n_programmed",
                              "erase_count", "level", "next_page",
                              "content_epoch"}))

#: Directories whose methods M001 checks (the mutable simulator state).
M001_PREFIXES = ("nand/", "ftl/")

#: Files whose functions M002 checks (mirrors only exist on ``Block``).
M002_PREFIX = "nand/"


#: Statements that open a scope of their own.
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


@dataclass
class WriteSite:
    """One classified state write inside a function body."""

    kind: str       #: ``"column"`` | ``"mirror"`` | ``"self"`` | ``"watched"``
    name: str       #: attribute / column name written
    node: ast.AST   #: the write target (for reporting)


@dataclass
class EffectSummary:
    """Interprocedural effect facts about one function."""

    #: Direct state writes in this body, in source order.
    writes: list[WriteSite] = field(default_factory=list)
    #: A ``raise`` statement occurs directly in this body.
    raises_direct: bool = False
    #: Qualnames of resolved callees (the call edges).
    calls: list[str] = field(default_factory=list)
    #: Fixpoint bits: some path through this function (or its callees)
    #: can raise / can write state.
    raises: bool = False
    writes_any: bool = False

    @property
    def pure_validator(self) -> bool:
        """Raise-capable but side-effect free: calling it is a check."""
        return self.raises and not self.writes_any


class RegionAliases:
    """Local aliases of region stores inside one function.

    The kernel's hot paths hoist array attribute loads into locals
    (``region = self.region``, ``valid_f = region.valid``) before the
    per-slot stores; writes through those locals are still column
    writes.  A single pre-pass over the body collects them.
    """

    def __init__(self, fn_node: ast.FunctionDef | ast.AsyncFunctionDef):
        #: Local names bound to a ``*.region`` expression.
        self.regions: set[str] = set()
        #: Local name -> region column it aliases.
        self.columns: dict[str, str] = {}
        for node in walk(fn_node):
            if not (isinstance(node, ast.Assign) and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                continue
            target = node.targets[0].id
            value = node.value
            if self.is_region_expr(value):
                self.regions.add(target)
            elif (isinstance(value, ast.Attribute)
                  and value.attr in REGION_COLUMNS
                  and self.is_region_expr(value.value)):
                self.columns[target] = value.attr

    def is_region_expr(self, node: ast.expr) -> bool:
        """Whether ``node`` denotes a :class:`RegionState` store."""
        if isinstance(node, ast.Attribute):
            return node.attr == "region"
        if isinstance(node, ast.Name):
            return node.id in self.regions
        return False


def classify_write(target: ast.expr,
                   aliases: RegionAliases) -> WriteSite | None:
    """Classify one write target as a state write, if it is one."""
    if isinstance(target, ast.Subscript):
        inner = target.value
        if isinstance(inner, ast.Name):
            col = aliases.columns.get(inner.id)
            if col is not None:
                return WriteSite("column", col, target)
            return None  # plain local container
        return classify_write(inner, aliases)
    if isinstance(target, ast.Attribute):
        attr = target.attr
        if attr in REGION_COLUMNS and aliases.is_region_expr(target.value):
            return WriteSite("column", attr, target)
        if attr in MIRROR_COLUMN:
            return WriteSite("mirror", attr, target)
        if isinstance(target.value, ast.Name) and target.value.id == "self":
            return WriteSite("self", attr, target)
        if attr in WATCHED_ATTRS:
            return WriteSite("watched", attr, target)
    return None


def _write_targets(stmt: ast.stmt) -> Iterator[ast.expr]:
    """Write-target expressions of one statement."""
    if isinstance(stmt, ast.Assign):
        yield from stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        yield stmt.target
    elif isinstance(stmt, ast.Delete):
        yield from stmt.targets


def _flatten_targets(targets: Iterator[ast.expr]) -> Iterator[ast.expr]:
    for target in targets:
        if isinstance(target, (ast.Tuple, ast.List)):
            yield from _flatten_targets(iter(target.elts))
        elif isinstance(target, ast.Starred):
            yield target.value
        else:
            yield target


class EffectsAnalysis(ProjectPass):
    """One whole-tree effect/exception dataflow shared by the M-rules."""

    def __init__(self, ctx: ProjectContext) -> None:
        super().__init__(ctx)
        self.summaries: dict[str, EffectSummary] = {}
        self._aliases: dict[str, RegionAliases] = {}
        self._build_summaries()
        self._propagate()
        self._check_m001()
        self._check_m002()

    # -- summaries ---------------------------------------------------------

    def _build_summaries(self) -> None:
        for fn in self.index.iter_functions():
            module = self.index.modules[fn.relpath]
            aliases = RegionAliases(fn.node)
            self._aliases[fn.qualname] = aliases
            types = self.index.local_types(fn)
            summ = EffectSummary()
            for stmt in fn.statements:
                if isinstance(stmt, ast.Raise):
                    summ.raises_direct = True
                for target in _flatten_targets(_write_targets(stmt)):
                    site = classify_write(target, aliases)
                    if site is not None:
                        summ.writes.append(site)
            for stmt in fn.node.body:
                if isinstance(stmt, _DEFS):
                    continue  # its calls are the nested def's own
                for node in walk(stmt):
                    if isinstance(node, ast.Call):
                        resolved = self.index.resolve_call(
                            node, module, fn.cls, types)
                        if resolved is not None:
                            summ.calls.append(resolved.qualname)
            summ.raises = summ.raises_direct
            summ.writes_any = bool(summ.writes)
            self.summaries[fn.qualname] = summ

    def _propagate(self) -> None:
        """Fixpoint of the raise/write bits over resolved call edges."""
        for _ in range(20):
            changed = False
            for qual in sorted(self.summaries):
                summ = self.summaries[qual]
                for callee in summ.calls:
                    other = self.summaries.get(callee)
                    if other is None:
                        continue
                    if other.raises and not summ.raises:
                        summ.raises = changed = True
                    if other.writes_any and not summ.writes_any:
                        summ.writes_any = changed = True
            if not changed:
                return

    # -- M001: write reachable before a raise-capable validation -----------

    def _check_m001(self) -> None:
        for fn in self.index.iter_functions():
            if not fn.relpath.startswith(M001_PREFIXES):
                continue
            if fn.name == "__init__":
                continue
            module = self.index.modules[fn.relpath]
            flow = _TornStateFlow(self, fn, module)
            flow.walk(fn.node.body)

    # -- M002: mirror/column writes must pair up ----------------------------

    def _check_m002(self) -> None:
        for fn in self.index.iter_functions():
            if not fn.relpath.startswith(M002_PREFIX):
                continue
            if fn.name == "__init__":
                continue
            summ = self.summaries[fn.qualname]
            mirrors: dict[str, WriteSite] = {}
            columns: dict[str, WriteSite] = {}
            for site in summ.writes:
                if site.kind == "mirror":
                    mirrors.setdefault(site.name, site)
                elif site.kind == "column":
                    columns.setdefault(site.name, site)
            for name, site in sorted(mirrors.items()):
                column = MIRROR_COLUMN[name]
                if column not in columns:
                    self.emit(
                        "M002", fn.relpath, site.node,
                        f"Block mirror '{name}' written in {fn.name}() "
                        f"without the paired RegionState column "
                        f"'{column}' — scalar mirrors and array columns "
                        f"must update in lock-step in the same method")
            for name, site in sorted(columns.items()):
                if name not in MIRRORED_COLUMNS:
                    continue
                paired = [m for m, c in MIRROR_COLUMN.items() if c == name]
                if not any(m in mirrors for m in paired):
                    self.emit(
                        "M002", fn.relpath, site.node,
                        f"RegionState column '{name}' written in "
                        f"{fn.name}() without any paired Block mirror "
                        f"({'/'.join(sorted(paired))}) — scalar mirrors "
                        f"and array columns must update in lock-step in "
                        f"the same method")


class _TornStateFlow:
    """Ordered walk of one function body for M001.

    Tracks the first state write per attribute along the linear
    statement order; every ``raise`` (outside ``try`` bodies that have
    handlers) and every call to a pure validator is a raise point — if
    any write precedes it, the method can leave the object partially
    mutated on the exception path.  Branches merge their writes unless
    they terminate (an early ``return`` path's writes never reach a
    later raise); loop bodies are walked twice so a second iteration's
    raise sees the first iteration's writes (the partially-applied-batch
    shape ``invalidate_many`` fixed by validating all slots first).
    """

    def __init__(self, analysis: EffectsAnalysis, fn: FunctionInfo,
                 module: ModuleInfo) -> None:
        self.analysis = analysis
        self.fn = fn
        self.module = module
        self.aliases = analysis._aliases[fn.qualname]
        self.types = analysis.index.local_types(fn)
        #: attr name -> first write node on some path reaching here.
        self.writes: dict[str, ast.AST] = {}
        self.try_depth = 0

    # -- statement dispatch ------------------------------------------------

    def walk(self, body: list[ast.stmt]) -> bool:
        """Walk ``body``; True when control cannot fall off its end."""
        for stmt in body:
            if self.stmt(stmt):
                return True
        return False

    def stmt(self, node: ast.stmt) -> bool:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Global, ast.Nonlocal, ast.Pass)):
            return False
        if isinstance(node, (ast.Return, ast.Break, ast.Continue)):
            if isinstance(node, ast.Return) and node.value is not None:
                self.visit_calls(node.value)
            return True
        if isinstance(node, ast.Raise):
            if node.exc is not None:
                self.visit_calls(node.exc)
            self.raise_point(node, "this raise")
            return True
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                             ast.Delete)):
            value = getattr(node, "value", None)
            if value is not None:
                self.visit_calls(value)
            for target in _flatten_targets(_write_targets(node)):
                self.visit_calls(target)  # index expressions may validate
                site = classify_write(target, self.aliases)
                if site is not None:
                    self.writes.setdefault(site.name, target)
            return False
        if isinstance(node, ast.Expr):
            self.visit_calls(node.value)
            return False
        if isinstance(node, ast.If):
            self.visit_calls(node.test)
            return self.branches([node.body, node.orelse])
        if isinstance(node, ast.Match):
            self.visit_calls(node.subject)
            for case in node.cases:
                if case.guard is not None:
                    self.visit_calls(case.guard)
            bodies = [case.body for case in node.cases]
            last = node.cases[-1]
            if not (isinstance(last.pattern, ast.MatchAs)
                    and last.pattern.pattern is None and last.guard is None):
                bodies.append([])  # no case matched
            return self.branches(bodies)
        if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
            head = node.iter if isinstance(node, (ast.For, ast.AsyncFor)) \
                else node.test
            self.visit_calls(head)
            # Two passes: the second sees the first iteration's writes,
            # so a validation raise inside the loop body flags when an
            # earlier iteration already mutated state.
            self.walk(node.body)
            self.walk(node.body)
            self.walk(node.orelse)
            return False
        if isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self.visit_calls(item.context_expr)
            return self.walk(node.body)
        if isinstance(node, TRY_STATEMENTS):
            if node.handlers:
                self.try_depth += 1
                self.walk(node.body)
                self.try_depth -= 1
            else:
                self.walk(node.body)
            for handler in node.handlers:
                self.walk(handler.body)
            self.walk(node.orelse)
            self.walk(node.finalbody)
            return False
        if isinstance(node, ast.Assert):
            # ``assert`` is a debugging aid stripped under ``-O``; the
            # simulator's real validations raise typed errors.
            self.visit_calls(node.test)
            return False
        return False

    def branches(self, bodies: list[list[ast.stmt]]) -> bool:
        """Walk alternative branches; merge non-terminating writes."""
        saved = dict(self.writes)
        merged = dict(saved)
        all_terminate = True
        for body in bodies:
            self.writes = dict(saved)
            terminated = self.walk(body)
            if not terminated:
                all_terminate = False
                merged.update(self.writes)
        self.writes = merged
        return all_terminate

    # -- raise points ------------------------------------------------------

    def visit_calls(self, expr: ast.expr) -> None:
        """Treat calls to pure validators inside ``expr`` as raise points."""
        for node in walk(expr):
            if not isinstance(node, ast.Call):
                continue
            resolved = self.analysis.index.resolve_call(
                node, self.module, self.fn.cls, self.types)
            if resolved is None or resolved.qualname == self.fn.qualname:
                continue
            summ = self.analysis.summaries.get(resolved.qualname)
            if summ is not None and summ.pure_validator:
                self.raise_point(
                    node, f"the raise-capable validation call "
                          f"{resolved.name}()")

    def raise_point(self, node: ast.AST, what: str) -> None:
        if self.try_depth or not self.writes:
            return
        attr = min(self.writes,
                   key=lambda a: getattr(self.writes[a], "lineno", 0))
        wnode = self.writes[attr]
        self.analysis.emit(
            "M001", self.fn.relpath, node,
            f"state write of '{attr}' (line "
            f"{getattr(wnode, 'lineno', '?')}) is reachable before "
            f"{what} in {self.fn.name}() — an exception here leaves the "
            f"object partially mutated; validate before mutating")


class _EffectsRule(Rule):
    """Base for the M-family: filter the shared analysis by rule id."""

    def check_project(self, ctx: ProjectContext) -> Iterator[Violation]:
        if ctx.sources:
            yield from ctx.shared(EffectsAnalysis).findings(self.id)


class TornStateWriteRule(_EffectsRule):
    """M001: state write reachable before a raise-capable validation."""

    id = "M001"
    title = "state write reachable before a raise-capable validation"


class MirrorColumnPairRule(_EffectsRule):
    """M002: Block mirror and RegionState column must write in lock-step."""

    id = "M002"
    title = "Block scalar mirror / RegionState column written unpaired"
