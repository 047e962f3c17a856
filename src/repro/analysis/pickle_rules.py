"""Checkpoint/pickle safety dataflow (rules P001 and P003).

The fleet layer's resume contract — a device replay pickled into a
checkpoint resumes *bit-identically* — leans on one fragile convention:
every piece of **loop-carry state** a replay driver accumulates — in
``feed`` or in any helper it calls, its own or a base class's — must
round-trip through the class's pickle protocol (a ``__getstate__`` that
drops one attribute resumes from a silently reset counter).

``tests/test_checkpoint.py`` enforces it dynamically (the resume-identity
suites); this module makes it a lint-time fact, plus a guard on the
process-pool boundary:

======== ============================================================
``P001`` a replay-driver attribute assigned outside the
         constructor and the pickle protocol (in the class or a base)
         is dropped by the class's ``__getstate__`` and never
         restored in ``__setstate__``, or is bound to an unpicklable
         value (lambda, generator, open handle)
``P003`` an unpicklable payload (lambda, closure, generator
         expression, open handle) flows into
         ``ProcessPoolExecutor.submit``/``map``
======== ============================================================

No rule guards numpy views into :class:`~repro.nand.state.RegionState`:
no class stores one, so default pickling keeps the checkpointed object
graph sharing the region arrays.  ``tests/test_checkpoint.py`` pickles
every scheme's replay driver and fails on any stored array that shares
memory with a region column without being that column.

Like the effect pass, unresolved structure drops facts instead of
guessing: a ``__getstate__`` whose shape the analysis cannot read
fires nothing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .callgraph import ClassInfo, FunctionInfo
from .core import (ProjectContext, ProjectPass, Rule, SourceFile,
                   Violation, walk)

#: A class defining or inheriting this method is a chunk-fed replay driver.
DRIVER_MARKER = "feed"

#: Methods whose ``self.<attr>`` assignments are *not* loop-carry state:
#: every other method of a driver class or its bases may run between
#: two checkpoints.
NON_CARRY_METHODS = frozenset({"__init__", "__getstate__", "__setstate__"})

#: Pool constructors whose payloads must pickle.
_POOL_CLASSES = frozenset({"ProcessPoolExecutor"})


def _self_assigned_attrs(fn: FunctionInfo) -> dict[str, ast.AST]:
    """First ``self.<attr>`` assignment target of each attr in one method."""
    out: dict[str, ast.AST] = {}
    for stmt in fn.statements:
        targets: list[ast.expr] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
            targets = [stmt.target]
        for target in targets:
            for leaf in walk(target):
                if (isinstance(leaf, ast.Attribute)
                        and isinstance(leaf.value, ast.Name)
                        and leaf.value.id == "self"
                        and isinstance(leaf.ctx, ast.Store)):
                    out.setdefault(leaf.attr, leaf)
    return out


def _unpicklable_value(value: ast.expr) -> str | None:
    """Why ``value`` cannot round-trip through pickle, if it cannot."""
    if isinstance(value, ast.Lambda):
        return "a lambda"
    if isinstance(value, ast.GeneratorExp):
        return "a generator expression"
    if (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
            and value.func.id == "open"):
        return "an open file handle"
    return None


def _constant_str_elts(node: ast.expr) -> set[str] | None:
    """String constants of a literal tuple/list/set, else ``None``."""
    if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
        out = set()
        for elt in node.elts:
            if not (isinstance(elt, ast.Constant)
                    and isinstance(elt.value, str)):
                return None
            out.add(elt.value)
        return out
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id in ("set", "frozenset", "tuple", "list")
            and len(node.args) == 1):
        return _constant_str_elts(node.args[0])
    return None


class PickleAnalysis(ProjectPass):
    """One whole-tree checkpoint-safety pass (P001)."""

    def __init__(self, ctx: ProjectContext) -> None:
        super().__init__(ctx)
        self._check_p001()

    # -- class helpers -----------------------------------------------------

    def _iter_classes(self) -> Iterator[ClassInfo]:
        for relpath in sorted(self.index.modules):
            mod = self.index.modules[relpath]
            for name in sorted(mod.classes):
                yield mod.classes[name]

    def _driver_methods(self, cls: ClassInfo) -> list[FunctionInfo]:
        """Every method a ``cls`` instance runs, bases included (the
        nearest definition of each name wins)."""
        seen: dict[str, FunctionInfo] = {}
        for klass in self.index.base_chain(cls):
            for name, method in klass.methods.items():
                seen.setdefault(name, method)
        return [seen[name] for name in sorted(seen)]

    def _restored_attrs(self, cls: ClassInfo,
                        setstate: FunctionInfo | None) -> set[str]:
        """Attrs ``__setstate__`` assigns, directly or one call deep."""
        if setstate is None:
            return set()
        restored = set(_self_assigned_attrs(setstate))
        for node in walk(setstate.node):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"):
                continue
            helper = self.index.class_method(cls, node.func.attr)
            if helper is not None:
                restored.update(_self_assigned_attrs(helper))
        return restored

    # -- P001: loop-carry state vs the pickle protocol ----------------------

    def _getstate_drops(self, getstate: FunctionInfo,
                        ) -> "tuple[set[str] | None, set[str]]":
        """``(included, excluded)`` attr sets of one ``__getstate__``.

        ``included is None`` means "everything except ``excluded``"
        (the dict-comprehension-over-``__slots__`` shape); both empty
        with ``included`` a set means an unreadable body, which fires
        nothing.
        """
        module = self.index.modules[getstate.relpath]
        for stmt in getstate.statements:
            if not isinstance(stmt, ast.Return) or stmt.value is None:
                continue
            value = stmt.value
            if isinstance(value, ast.Dict):
                included = {k.value for k in value.keys
                            if isinstance(k, ast.Constant)
                            and isinstance(k.value, str)}
                return included, set()
            if isinstance(value, ast.DictComp) and value.generators:
                excluded: set[str] = set()
                gen = value.generators[0]
                for cond in gen.ifs:
                    if not (isinstance(cond, ast.Compare)
                            and len(cond.ops) == 1
                            and isinstance(cond.ops[0], ast.NotIn)):
                        continue
                    skip = cond.comparators[0]
                    elts = _constant_str_elts(skip)
                    if elts is None and isinstance(skip, ast.Name):
                        # ``if k not in _SKIP``: a module-level constant
                        found = self.index.module_value(skip.id, module)
                        if found is not None:
                            elts = _constant_str_elts(found[1])
                    if elts is not None:
                        excluded.update(elts)
                return None, excluded
        return set(), set()

    def _check_p001(self) -> None:
        for cls in self._iter_classes():
            if self.index.class_method(cls, DRIVER_MARKER) is None:
                continue
            #: attr -> (relpath, node) of its first carry assignment.
            carried: dict[str, tuple[str, ast.AST]] = {}
            for fn in self._driver_methods(cls):
                if fn.name in NON_CARRY_METHODS:
                    continue
                for attr, node in _self_assigned_attrs(fn).items():
                    carried.setdefault(attr, (fn.relpath, node))
                # Unpicklable values are a violation regardless of the
                # pickle protocol: no __getstate__ can serialise them.
                for stmt in fn.statements:
                    if not (isinstance(stmt, ast.Assign)
                            and any(isinstance(t, ast.Attribute)
                                    and isinstance(t.value, ast.Name)
                                    and t.value.id == "self"
                                    for t in stmt.targets)):
                        continue
                    why = _unpicklable_value(stmt.value)
                    if why is not None:
                        owner = fn.cls.name if fn.cls is not None else cls.name
                        self.emit(
                            "P001", fn.relpath, stmt,
                            f"loop-carry state of {owner}.{fn.name}() "
                            f"is bound to {why}, which cannot round-trip "
                            f"through the checkpoint pickle")
            getstate = self.index.class_method(cls, "__getstate__")
            if getstate is None or not carried:
                continue
            included, excluded = self._getstate_drops(getstate)
            setstate = self.index.class_method(cls, "__setstate__")
            restored = self._restored_attrs(cls, setstate)
            for attr in sorted(carried):
                dropped = (attr in excluded if included is None
                           else attr not in included)
                if dropped and attr not in restored:
                    relpath, node = carried[attr]
                    self.emit(
                        "P001", relpath, node,
                        f"loop-carry attribute '{attr}' of {cls.name} "
                        f"(assigned outside __init__) is dropped by "
                        f"__getstate__ and never restored in "
                        f"__setstate__ — a resumed checkpoint would "
                        f"silently reset it")


class LoopCarryPickleRule(Rule):
    """P001: replay-driver loop-carry state must survive the pickle."""

    id = "P001"
    title = "replay-driver loop-carry state dropped by the pickle protocol"

    def check_project(self, ctx: ProjectContext) -> Iterator[Violation]:
        if ctx.sources:
            yield from ctx.shared(PickleAnalysis).findings(self.id)


class ExecutorPayloadRule(Rule):
    """P003: payloads handed to a process pool must pickle.

    Per-file: ``pool.submit(lambda: …)`` / ``pool.map(<closure>, …)``
    raise ``PicklingError`` only at runtime, on whichever machine first
    runs with more than one worker — the single-worker fast path of
    ``run_cells`` never touches the pool, so tests can pass while the
    parallel path is broken.
    """

    id = "P003"
    title = "unpicklable payload passed to a process pool"

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        if not any(self._pool_call(node) for node in src.nodes):
            return  # no pool is built here, so no payload can reach one
        for holder in src.nodes:
            if isinstance(holder, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._check_function(src, holder)

    def _pool_call(self, expr: ast.AST) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        func = expr.func
        name = func.id if isinstance(func, ast.Name) else (
            func.attr if isinstance(func, ast.Attribute) else None)
        return name in _POOL_CLASSES

    def _check_function(self, src: SourceFile,
                        fn: ast.FunctionDef | ast.AsyncFunctionDef,
                        ) -> Iterator[Violation]:
        pools: set[str] = set()
        nested: set[str] = set()
        for node in fn.body:
            for stmt in walk(node):
                if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                        and stmt is not fn:
                    nested.add(stmt.name)
                elif isinstance(stmt, ast.Assign):
                    if self._pool_call(stmt.value):
                        pools.update(t.id for t in stmt.targets
                                     if isinstance(t, ast.Name))
                elif isinstance(stmt, (ast.With, ast.AsyncWith)):
                    for item in stmt.items:
                        if (self._pool_call(item.context_expr)
                                and isinstance(item.optional_vars, ast.Name)):
                            pools.add(item.optional_vars.id)
        if not pools:
            return
        for node in walk(fn):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id in pools
                    and node.func.attr in ("submit", "map")):
                continue
            # map() consumes its iterables parent-side; only the callable
            # must pickle.  submit() ships every argument to the worker.
            payloads = (node.args if node.func.attr == "submit"
                        else node.args[:1])
            for arg in payloads:
                why = _unpicklable_value(arg)
                if why is None and isinstance(arg, ast.Name) \
                        and arg.id in nested:
                    why = f"the closure {arg.id}() defined in {fn.name}()"
                if why is not None:
                    yield Violation(
                        self.id, src.relpath, arg.lineno, arg.col_offset,
                        f"{why} is passed to ProcessPoolExecutor."
                        f"{node.func.attr}() — it cannot pickle, so the "
                        f"parallel fan-out fails at runtime (pass a "
                        f"module-level function and primitive args)")
