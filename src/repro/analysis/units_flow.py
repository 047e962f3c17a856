"""Interprocedural unit & address-space dataflow (rules U001–U003).

The simulator's dimensional contracts — latencies are **milliseconds**,
sizes are **bytes**, and the three address spaces (4 KiB subpage LSN,
16 KiB logical-page LPN, physical PPN) never interchange without an
explicit conversion — live in annotations and naming conventions.  This
module turns them into checked facts:

* facts are *seeded* from the ``repro.units`` vocabulary
  (``Annotated`` aliases ``Ms``/``Bytes``/``Lsn``/… on signatures and
  attributes), from naming conventions (``*_ms``, ``*_bytes``,
  ``*_lsn``, exact names ``lsn``/``lpn``/``ppn``, plural container
  names ``*_lsns``; names containing ``_per_`` or starting ``n_``/
  ``num_`` are rates/counts and carry no unit), and from the
  ``KIB``/``MIB``/``GIB``/``US``/``SEC`` scale factors;
* facts *propagate* through assignments, arithmetic, returns and —
  via the :class:`~repro.analysis.callgraph.ProjectIndex` call graph —
  across call edges, with unannotated return units inferred from
  function bodies by a small fixpoint;
* three rule families fire on contradictions:

  ======== ========================================================
  ``U001`` mixed-unit arithmetic (``ms + bytes``, ``ms < bytes``,
           multiplying two ``ms`` values)
  ``U002`` address-space confusion (an LSN reaching an LPN/PPN
           parameter, indexing a ``*_by_lpn`` table with an LSN, …)
  ``U003`` lossy/unconverted boundary crossings (``kib`` meeting
           ``bytes`` unscaled, ``US``/``SEC``/``KIB`` factors applied
           twice, raw KiB counts passed where ``Bytes`` is declared)
  ======== ========================================================

Annotations always win over naming conventions (``lpn_of_lsn(...) ->
Lpn`` is an LPN despite its suffix); non-scalar annotations
(``tuple[...]``, ``range``, ``np.ndarray``) pin a name to *unknown*
rather than letting a misleading suffix invent a unit.  The analysis is
deliberately conservative: unknown units never fire a rule.

``units.py`` itself is exempt — it is the conversion boundary, and its
helpers legitimately mix dimensions.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Iterator

from .callgraph import CONTAINER_HEADS, ClassInfo, FunctionInfo, ModuleInfo
from .core import (TRY_STATEMENTS, ProjectContext, ProjectPass, Rule,
                   SourceFile, Violation)

#: ``repro.units`` alias name -> unit fact.
VOCAB_UNITS: dict[str, str] = {
    "Ms": "ms",
    "Bytes": "bytes",
    "Kib": "kib",
    "Lsn": "lsn",
    "Lpn": "lpn",
    "Ppn": "ppn",
    "SubpageCount": "subpages",
    "PeCycles": "pe",
}

#: Array-column alias name -> *element* unit fact.  The aliases wrap
#: ``Any`` (columns are ndarrays or ``None``), so they parse as
#: containers whose elements carry the unit — ``region.slot_time[j]``
#: reads as ms without asserting anything about the array object.
VOCAB_ELEMS: dict[str, str] = {
    "MsArray": "ms",
    "LsnArray": "lsn",
    "PeCyclesArray": "pe",
    "SubpageCountArray": "subpages",
}

ADDRESS_SPACES = frozenset({"lsn", "lpn", "ppn"})

#: Bound on the rounds of return-unit inference.  Each round carries a
#: return unit at least one call further up an unannotated helper
#: chain; the committed tree settles in three.
MAX_ROUNDS = 20

#: Unit pairs related by a known scale factor: mixing them is a missed
#: conversion (U003), not meaningless arithmetic (U001).
CONVERTIBLE = (frozenset({"kib", "bytes"}), frozenset({"us", "ms"}))

_SCALAR_ANNOTATIONS = frozenset({"int", "float", "bool"})
#: Tuples are records, not element containers: ``tuple[...]`` pins unknown.
_TUPLE_ANNOTATIONS = frozenset({"tuple", "Tuple"})
_MAPPING_ANNOTATIONS = frozenset({
    "dict", "Dict", "Mapping", "MutableMapping", "defaultdict",
    "DefaultDict", "Counter", "OrderedDict",
})

#: ``x * KIB`` scales KiB to bytes; ``x * US`` / ``x * SEC`` convert
#: microseconds / seconds to milliseconds.
_BYTE_FACTORS = frozenset({"KIB", "MIB", "GIB"})

_SUFFIX_UNITS: tuple[tuple[str, str], ...] = (
    ("_pe_cycles", "pe"),
    ("_ms", "ms"),
    ("_us", "us"),
    ("_bytes", "bytes"),
    ("_kib", "kib"),
    ("_lsn", "lsn"),
    ("_lpn", "lpn"),
    ("_ppn", "ppn"),
    ("_subpages", "subpages"),
    ("_pe", "pe"),
)
_EXACT_UNITS = {"lsn": "lsn", "lpn": "lpn", "ppn": "ppn", "pe_cycles": "pe"}

_SUFFIX_ELEMS: tuple[tuple[str, str], ...] = (
    ("_lsns", "lsn"),
    ("_lpns", "lpn"),
    ("_ppns", "ppn"),
)
_EXACT_ELEMS = {"lsns": "lsn", "lpns": "lpn", "ppns": "ppn"}

#: ``chunks_by_lpn`` / ``by_lsn`` — a container keyed by that space.
_BY_DOMAIN = re.compile(r"(?:^|_)by_(lsn|lpn|ppn)$")

#: Counts and rates: ``n_lsns`` is *how many* LSNs, not an LSN;
#: ``power_loss_per_ms`` is a rate, not a latency.
_NO_CONVENTION_PREFIXES = ("n_", "num_")


def name_unit(name: str) -> str | None:
    """Scalar unit a bare name implies by convention, if any."""
    low = name.lower()
    if "_per_" in low or low.startswith(_NO_CONVENTION_PREFIXES):
        return None
    if _BY_DOMAIN.search(low):
        return None  # a keyed container, not a scalar of that space
    if low in _EXACT_UNITS:
        return _EXACT_UNITS[low]
    for suffix, unit in _SUFFIX_UNITS:
        if low.endswith(suffix):
            return unit
    return None


def name_elem(name: str) -> str | None:
    """Element unit a container name implies (``lsns`` holds LSNs)."""
    low = name.lower()
    if "_per_" in low or low.startswith(_NO_CONVENTION_PREFIXES):
        return None
    if low in _EXACT_ELEMS:
        return _EXACT_ELEMS[low]
    for suffix, unit in _SUFFIX_ELEMS:
        if low.endswith(suffix):
            return unit
    return None


def name_domain(name: str) -> str | None:
    """Key address space of a ``*_by_lpn``-style container name."""
    m = _BY_DOMAIN.search(name.lower())
    return m.group(1) if m else None


def _ann_name(node: ast.expr) -> str | None:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


@dataclass(frozen=True)
class AnnInfo:
    """What an annotation expression says about units.

    ``kind`` is one of ``"unit"`` (a vocabulary alias), ``"scalar"``
    (``int``/``float`` — naming conventions still apply), ``"container"``
    (element/key facts in ``elem``/``key_domain``), ``"other"`` (pins
    the value to *unknown*, silencing conventions), or ``"none"`` (no
    annotation at all).
    """

    kind: str
    unit: str | None = None
    elem: str | None = None
    key_domain: str | None = None


def _factor_kind(node: ast.expr) -> str | None:
    """Scale-factor role of an expression, by constant name."""
    name = _ann_name(node)
    if name in _BYTE_FACTORS:
        return "bytes"
    if name == "US":
        return "us2ms"
    if name == "SEC":
        return "sec2ms"
    return None


@dataclass
class Summary:
    """Interprocedural facts about one function."""

    #: Declared/conventional unit per parameter (known units only).
    param_units: dict[str, str] = field(default_factory=dict)
    #: Element unit of container parameters.
    param_elems: dict[str, str] = field(default_factory=dict)
    #: Key address space of mapping parameters.
    param_domains: dict[str, str] = field(default_factory=dict)
    return_unit: str | None = None
    #: True when the return unit came from an annotation or a name
    #: convention (body inference must not override it).
    return_pinned: bool = False
    return_elem: str | None = None


class UnitsAnalysis(ProjectPass):
    """One whole-tree dataflow pass shared by the three U-rules."""

    #: The conversion boundary itself is exempt (cf. rng.py for D001).
    SKIP_FILES = frozenset({"units.py"})

    def __init__(self, ctx: ProjectContext) -> None:
        super().__init__(ctx)
        self.summaries: dict[str, Summary] = {}
        self._seed_summaries()
        # Body-inferred return units depend on other summaries, so rounds
        # repeat until one changes no summary; that round saw the final
        # summaries throughout, and its findings are the ones reported.
        for _ in range(MAX_ROUNDS):
            self.violations.clear()
            self._emitted.clear()
            if not self._run_round():
                break

    # -- fact seeding ------------------------------------------------------

    def ann_info(self, node: ast.expr | None) -> AnnInfo:
        """Classify one annotation, read through the index's normaliser."""
        node = self.index.annotation(node)
        if node is None:
            return AnnInfo("none")
        name = _ann_name(node)
        if name in VOCAB_UNITS:
            return AnnInfo("unit", unit=VOCAB_UNITS[name])
        if name in VOCAB_ELEMS:
            return AnnInfo("container", elem=VOCAB_ELEMS[name])
        if name in _SCALAR_ANNOTATIONS:
            return AnnInfo("scalar")
        if name == "range":
            return AnnInfo("container")
        if isinstance(node, ast.Subscript):
            base = _ann_name(node.value)
            inner = (list(node.slice.elts) if isinstance(node.slice, ast.Tuple)
                     else [node.slice])
            if base in CONTAINER_HEADS and base not in _TUPLE_ANNOTATIONS:
                if len(inner) == 1:
                    return AnnInfo("container",
                                   elem=self.ann_info(inner[0]).unit)
                return AnnInfo("container")
            if base in _MAPPING_ANNOTATIONS and len(inner) == 2:
                key = self.ann_info(inner[0]).unit
                value = self.ann_info(inner[1]).unit
                return AnnInfo("container", elem=value,
                               key_domain=key if key in ADDRESS_SPACES else None)
        return AnnInfo("other")

    def attr_ann(self, cls: ClassInfo, attr: str) -> AnnInfo | None:
        """Unit or container fact of ``instance.attr``, nearest class first."""
        for cur in self.index.base_chain(cls):
            ann = cur.annotations.get(attr)
            if ann is not None:
                info = self.ann_info(ann)
                if info.kind in ("unit", "container"):
                    return info
        return None

    def _seed_summaries(self) -> None:
        for fn in self.index.iter_functions():
            summ = Summary()
            for pname, ann in zip(fn.params, fn.param_annotations):
                info = self.ann_info(ann)
                if info.kind == "unit":
                    summ.param_units[pname] = info.unit or ""
                elif info.kind == "container":
                    elem = info.elem or name_elem(pname)
                    if elem:
                        summ.param_elems[pname] = elem
                    domain = info.key_domain or name_domain(pname)
                    if domain:
                        summ.param_domains[pname] = domain
                elif info.kind in ("scalar", "none"):
                    unit = name_unit(pname)
                    if unit:
                        summ.param_units[pname] = unit
                    elem = name_elem(pname)
                    if elem:
                        summ.param_elems[pname] = elem
                    domain = name_domain(pname)
                    if domain:
                        summ.param_domains[pname] = domain
                # "other": deliberately no facts.
            rinfo = self.ann_info(fn.node.returns)
            if rinfo.kind == "unit":
                summ.return_unit, summ.return_pinned = rinfo.unit, True
            elif rinfo.kind == "container":
                summ.return_pinned = True
                summ.return_elem = rinfo.elem or name_elem(fn.name)
            elif rinfo.kind == "other":
                summ.return_pinned = True
            else:  # scalar annotation or none: conventions apply
                unit = name_unit(fn.name)
                summ.return_unit = unit
                summ.return_pinned = unit is not None
                summ.return_elem = name_elem(fn.name)
            self.summaries[fn.qualname] = summ

    # -- rounds ------------------------------------------------------------

    def _run_round(self) -> bool:
        """One pass over every module; True when a summary changed."""
        changed = False
        for relpath in sorted(self.sources):
            if relpath in self.SKIP_FILES:
                continue
            src = self.sources[relpath]
            module = self.index.modules.get(relpath)
            if module is None:
                continue
            flow = _FunctionFlow(self, src, module, None, None)
            flow.run(src.tree.body)
            for fname in sorted(module.functions):
                changed |= self._analyze_function(
                    src, module, module.functions[fname])
            for cname in sorted(module.classes):
                cls = module.classes[cname]
                for mname in sorted(cls.methods):
                    changed |= self._analyze_function(
                        src, module, cls.methods[mname])
        return changed

    def _analyze_function(self, src: SourceFile, module: ModuleInfo,
                          fn: FunctionInfo) -> bool:
        """Flow one function; True when its return facts changed."""
        flow = _FunctionFlow(self, src, module, fn.cls, fn)
        flow.run(fn.node.body)
        summ = self.summaries[fn.qualname]
        before = (summ.return_unit, summ.return_elem)
        if not summ.return_pinned:
            known = {u for u in flow.returns if u}
            summ.return_unit = known.pop() if len(known) == 1 else None
        if summ.return_elem is None:
            known = {e for e in flow.return_elems if e}
            if len(known) == 1:
                summ.return_elem = known.pop()
        return (summ.return_unit, summ.return_elem) != before


class _FunctionFlow:
    """Flow-sensitive unit inference over one function (or module) body.

    ``env`` maps a local name to its unit; a *missing* name falls back
    to naming conventions on read, while an explicit ``None`` entry is
    pinned-unknown (a non-scalar annotation silenced the convention).
    ``elems``/``domains`` carry container element units and mapping key
    spaces; ``local_types`` tracks instance classes (annotated
    parameters, then each assignment typed by the index's
    :meth:`~repro.analysis.callgraph.ProjectIndex.expr_type`) so method
    calls and attribute facts resolve through the call graph.
    """

    def __init__(self, analysis: UnitsAnalysis, src: SourceFile,
                 module: ModuleInfo, enclosing_class: ClassInfo | None,
                 fn: FunctionInfo | None) -> None:
        self.analysis = analysis
        self.src = src
        self.module = module
        self.enclosing_class = enclosing_class
        self.env: dict[str, str | None] = {}
        self.elems: dict[str, str] = {}
        self.domains: dict[str, str] = {}
        self.local_types: dict[str, ClassInfo] = {}
        self.returns: list[str | None] = []
        self.return_elems: list[str | None] = []
        if fn is not None:
            self.local_types = analysis.index.param_types(fn)
            summ = analysis.summaries[fn.qualname]
            for pname, ann in zip(fn.params, fn.param_annotations):
                info = analysis.ann_info(ann)
                if info.kind == "unit":
                    self.env[pname] = info.unit
                elif info.kind in ("container", "other"):
                    self.env[pname] = None  # pinned unknown
                # scalar/none: fall back to conventions on read
            self.elems.update(summ.param_elems)
            self.domains.update(summ.param_domains)

    # -- statement dispatch ------------------------------------------------

    def run(self, body: list[ast.stmt]) -> None:
        for stmt in body:
            self.stmt(stmt)

    def stmt(self, node: ast.stmt) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef, ast.Import, ast.ImportFrom,
                             ast.Global, ast.Nonlocal, ast.Pass,
                             ast.Break, ast.Continue, ast.Delete)):
            return
        if isinstance(node, ast.Return):
            if node.value is not None:
                self.returns.append(self.infer(node.value))
                self.return_elems.append(self.infer_elem(node.value))
            return
        if isinstance(node, ast.Assign):
            self.do_assign(node)
        elif isinstance(node, ast.AnnAssign):
            self.do_annassign(node)
        elif isinstance(node, ast.AugAssign):
            self.do_augassign(node)
        elif isinstance(node, ast.Expr):
            self.infer(node.value)
        elif isinstance(node, (ast.If, ast.While)):
            self.infer(node.test)
            self.run(node.body)
            self.run(node.orelse)
        elif isinstance(node, (ast.For, ast.AsyncFor)):
            self.do_for(node)
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                self.infer(item.context_expr)
            self.run(node.body)
        elif isinstance(node, ast.Match):
            self.infer(node.subject)
            for case in node.cases:
                if case.guard is not None:
                    self.infer(case.guard)
                self.run(case.body)
        elif isinstance(node, TRY_STATEMENTS):
            self.run(node.body)
            for handler in node.handlers:
                self.run(handler.body)
            self.run(node.orelse)
            self.run(node.finalbody)
        elif isinstance(node, ast.Assert):
            self.infer(node.test)
        elif isinstance(node, ast.Raise):
            if node.exc is not None:
                self.infer(node.exc)

    def do_assign(self, node: ast.Assign) -> None:
        unit = self.infer(node.value)
        elem = self.infer_elem(node.value)
        cls = self.type_of(node.value)
        for target in node.targets:
            self.bind(target, unit, elem, cls, node.value)

    def bind(self, target: ast.expr, unit: str | None, elem: str | None,
             cls: ClassInfo | None, value: ast.expr | None) -> None:
        if isinstance(target, ast.Name):
            if unit is not None:
                self.env[target.id] = unit
            else:
                self.env.pop(target.id, None)
            if elem is not None:
                self.elems[target.id] = elem
            else:
                self.elems.pop(target.id, None)
            if cls is not None:
                self.local_types[target.id] = cls
            else:
                self.local_types.pop(target.id, None)
        elif isinstance(target, (ast.Tuple, ast.List)):
            if (value is not None and isinstance(value, (ast.Tuple, ast.List))
                    and len(value.elts) == len(target.elts)):
                for sub_target, sub_value in zip(target.elts, value.elts):
                    self.bind(sub_target, self.infer(sub_value),
                              self.infer_elem(sub_value),
                              self.type_of(sub_value), sub_value)
            else:
                for sub_target in target.elts:
                    self.bind(sub_target, None, None, None, None)
        elif isinstance(target, ast.Subscript):
            self.infer(target)  # index-domain check on the store
        elif isinstance(target, ast.Starred):
            self.bind(target.value, None, None, None, None)
        # plain attribute stores: name conventions cover reads

    def do_annassign(self, node: ast.AnnAssign) -> None:
        if node.value is not None:
            value_unit = self.infer(node.value)
        else:
            value_unit = None
        info = self.analysis.ann_info(node.annotation)
        if not isinstance(node.target, ast.Name):
            return
        name = node.target.id
        if info.kind == "unit":
            if value_unit and info.unit and value_unit != info.unit:
                self.flag_mix(value_unit, info.unit, node,
                              f"assigned to '{name}' declared as")
            self.env[name] = info.unit
        elif info.kind == "container":
            self.env[name] = None
            if info.elem:
                self.elems[name] = info.elem
            if info.key_domain:
                self.domains[name] = info.key_domain
        elif info.kind == "other":
            self.env[name] = None
        elif value_unit is not None:
            self.env[name] = value_unit

    def do_augassign(self, node: ast.AugAssign) -> None:
        target_unit = self.infer(node.target)
        value_unit = self.infer(node.value)
        result = self.combine_binop(node.op, target_unit, value_unit,
                                    node.target, node.value, node)
        if isinstance(node.target, ast.Name):
            if result is not None:
                self.env[node.target.id] = result
            else:
                self.env.pop(node.target.id, None)

    def do_for(self, node: ast.For | ast.AsyncFor) -> None:
        self.infer(node.iter)
        elem = self.infer_elem(node.iter)
        target = node.target
        if isinstance(target, ast.Name):
            self.bind(target, elem, None, None, None)
        elif isinstance(target, ast.Tuple) and len(target.elts) == 2:
            first, second = None, None
            it = node.iter
            if isinstance(it, ast.Call) and isinstance(it.func, ast.Attribute):
                if it.func.attr == "items":
                    first = self.container_domain(it.func.value)
                    second = self.infer_elem(it.func.value)
            elif (isinstance(it, ast.Call) and isinstance(it.func, ast.Name)
                  and it.func.id == "enumerate" and it.args):
                second = self.infer_elem(it.args[0])
            self.bind(target.elts[0], first, None, None, None)
            self.bind(target.elts[1], second, None, None, None)
        else:
            self.bind(target, None, None, None, None)
        self.run(node.body)
        self.run(node.orelse)

    # -- expression inference ----------------------------------------------

    def type_of(self, expr: ast.expr) -> ClassInfo | None:
        """Instance class of ``expr`` under the current local types."""
        return self.analysis.index.expr_type(
            expr, self.module, self.enclosing_class, self.local_types)

    def attr_fact(self, node: ast.Attribute) -> AnnInfo | None:
        """Annotation fact of ``owner.attr``, when the owner is typed."""
        cls = self.type_of(node.value)
        return None if cls is None else self.analysis.attr_ann(cls, node.attr)

    def lookup(self, name: str) -> str | None:
        if name in self.env:
            return self.env[name]
        return name_unit(name)

    def infer(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.lookup(node.id)
        if isinstance(node, ast.Attribute):
            return self.infer_attribute(node)
        if isinstance(node, ast.Constant):
            return None
        if isinstance(node, ast.BinOp):
            return self.infer_binop(node)
        if isinstance(node, ast.UnaryOp):
            return self.infer(node.operand)
        if isinstance(node, ast.Compare):
            return self.infer_compare(node)
        if isinstance(node, ast.BoolOp):
            units = {self.infer(v) for v in node.values}
            return units.pop() if len(units) == 1 else None
        if isinstance(node, ast.IfExp):
            self.infer(node.test)
            a, b = self.infer(node.body), self.infer(node.orelse)
            return a if a == b else None
        if isinstance(node, ast.Call):
            return self.infer_call(node)
        if isinstance(node, ast.Subscript):
            return self.infer_subscript(node)
        if isinstance(node, (ast.List, ast.Tuple, ast.Set)):
            for elt in node.elts:
                self.infer(elt)
            return None
        if isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self.infer(key)
            for value in node.values:
                self.infer(value)
            return None
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            self.comp_elem(node)
            return None
        if isinstance(node, ast.DictComp):
            self.do_generators(node.generators)
            self.infer(node.key)
            self.infer(node.value)
            return None
        if isinstance(node, ast.JoinedStr):
            for value in node.values:
                if isinstance(value, ast.FormattedValue):
                    self.infer(value.value)
            return None
        if isinstance(node, ast.FormattedValue):
            return self.infer(node.value)
        if isinstance(node, ast.Starred):
            self.infer(node.value)
            return None
        if isinstance(node, ast.NamedExpr):
            unit = self.infer(node.value)
            self.bind(node.target, unit, self.infer_elem(node.value),
                      None, node.value)
            return unit
        if isinstance(node, (ast.Await, ast.Yield, ast.YieldFrom)):
            if node.value is not None:
                self.infer(node.value)
            return None
        if isinstance(node, ast.Slice):
            for bound in (node.lower, node.upper, node.step):
                if bound is not None:
                    self.infer(bound)
            return None
        return None

    def infer_attribute(self, node: ast.Attribute) -> str | None:
        if not isinstance(node.value, ast.Name):
            self.infer(node.value)
        info = self.attr_fact(node)
        if info is not None:
            if info.kind == "unit":
                return info.unit
            return None  # annotated container/other: pinned unknown
        return name_unit(node.attr)

    def infer_binop(self, node: ast.BinOp) -> str | None:
        left_unit = self.infer(node.left)
        right_unit = self.infer(node.right)
        op = node.op
        if isinstance(op, ast.Mult):
            factor = _factor_kind(node.right) or _factor_kind(node.left)
            if factor is not None:
                other = (left_unit if _factor_kind(node.right) is not None
                         else right_unit)
                return self.apply_factor(factor, other, node)
            return self.combine_mult(left_unit, right_unit, node)
        if isinstance(op, (ast.Add, ast.Sub)):
            verb = "+" if isinstance(op, ast.Add) else "-"
            return self.combine_addsub(left_unit, right_unit, verb, node)
        if isinstance(op, ast.Div):
            if (_factor_kind(node.right) == "bytes"
                    and left_unit == "bytes"):
                return "kib"
            return None
        return None  # floordiv/mod/pow/shifts: unit not tracked

    def combine_binop(self, op: ast.operator, left_unit: str | None,
                      right_unit: str | None, left: ast.expr,
                      right: ast.expr, node: ast.AST) -> str | None:
        if isinstance(op, ast.Mult):
            factor = _factor_kind(right) or _factor_kind(left)
            if factor is not None:
                other = (left_unit if _factor_kind(right) is not None
                         else right_unit)
                return self.apply_factor(factor, other, node)
            return self.combine_mult(left_unit, right_unit, node)
        if isinstance(op, (ast.Add, ast.Sub)):
            verb = "+" if isinstance(op, ast.Add) else "-"
            return self.combine_addsub(left_unit, right_unit, verb, node)
        return None

    def combine_addsub(self, a: str | None, b: str | None, verb: str,
                       node: ast.AST) -> str | None:
        if a and b and a != b:
            self.flag_mix(a, b, node, verb)
            return None
        return a or b  # ``lsn + 1`` stays an lsn; ``ms + x`` stays ms

    def combine_mult(self, a: str | None, b: str | None,
                     node: ast.AST) -> str | None:
        if a and b:
            if a == b == "ms":
                self.analysis_emit("U001", node,
                                   "mixed-unit arithmetic: multiplying two "
                                   "ms values (ms * ms is not a latency)")
            elif a in ADDRESS_SPACES and b in ADDRESS_SPACES:
                self.analysis_emit("U002", node,
                                   "address-space confusion: multiplying "
                                   f"{a} by {b} addresses")
            return None  # unit products (rates etc.) are untracked
        known = a or b
        if known in ADDRESS_SPACES:
            # Scaling an address converts spaces (``lpn * subpages_per_page``
            # is an LSN): the destination space is unknown here.
            return None
        return known  # scaling by a unitless count preserves the unit

    def apply_factor(self, kind: str, other: str | None,
                     node: ast.AST) -> str | None:
        if kind == "bytes":
            if other == "bytes":
                self.analysis_emit(
                    "U003", node,
                    "KIB/MIB/GIB scale factor applied to a value already "
                    "in bytes (double scaling)")
                return None
            if other in (None, "kib"):
                return "bytes"
            return None
        if kind == "us2ms":
            if other in (None, "us"):
                return "ms"
            self.analysis_emit(
                "U003", node,
                f"US (us->ms) conversion factor applied to a {other} value")
            return None
        # sec2ms: there is no tracked "seconds" unit, so any known unit
        # under a SEC factor is a conversion applied to the wrong thing.
        if other is None:
            return "ms"
        self.analysis_emit(
            "U003", node,
            f"SEC (sec->ms) conversion factor applied to a {other} value")
        return None

    def infer_compare(self, node: ast.Compare) -> str | None:
        prev_unit = self.infer(node.left)
        for op, comp in zip(node.ops, node.comparators):
            comp_unit = self.infer(comp)
            if isinstance(op, (ast.In, ast.NotIn)):
                domain = self.container_domain(comp)
                if (domain and prev_unit in ADDRESS_SPACES
                        and prev_unit != domain):
                    self.analysis_emit(
                        "U002", node,
                        f"address-space confusion: {prev_unit} value "
                        f"tested for membership in a container keyed "
                        f"by {domain}")
            elif not isinstance(op, (ast.Is, ast.IsNot)):
                if prev_unit and comp_unit and prev_unit != comp_unit:
                    self.flag_mix(prev_unit, comp_unit, node, "compared to")
            prev_unit = comp_unit
        return None

    def infer_subscript(self, node: ast.Subscript) -> str | None:
        if isinstance(node.slice, ast.Slice):
            self.infer(node.slice)
            return None  # a slice of a container is still a container
        index_unit = self.infer(node.slice)
        domain = self.container_domain(node.value)
        if (domain and index_unit in ADDRESS_SPACES
                and index_unit != domain):
            self.analysis_emit(
                "U002", node,
                f"address-space confusion: {index_unit} value indexes a "
                f"mapping keyed by {domain}")
        if not isinstance(node.value, (ast.Name, ast.Attribute)):
            self.infer(node.value)
        return self.infer_elem(node.value)

    def infer_call(self, node: ast.Call) -> str | None:
        arg_units = [self.infer(arg) for arg in node.args]
        kw_units = {kw.arg: self.infer(kw.value) for kw in node.keywords
                    if kw.arg is not None}
        for kw in node.keywords:
            if kw.arg is None:
                self.infer(kw.value)
        func = node.func
        fname = _ann_name(func)
        if isinstance(func, ast.Attribute) and not isinstance(
                func.value, ast.Name):
            self.infer(func.value)
        if isinstance(func, ast.Name):
            builtin = self._builtin_unit(func.id, node, arg_units)
            if builtin is not NotImplemented:
                return builtin
        resolved = self.analysis.index.resolve_call(
            node, self.module, self.enclosing_class, self.local_types)
        if resolved is not None:
            summ = self.analysis.summaries.get(resolved.qualname)
            if summ is not None:
                self.check_args(node, resolved, summ, arg_units, kw_units)
                return summ.return_unit
            return None
        if fname is not None:
            return name_unit(fname)  # ``timing.duration_ms(...)`` -> ms
        return None

    def _builtin_unit(self, fname: str, node: ast.Call,
                      arg_units: list[str | None]):
        """Unit-preserving builtins; ``NotImplemented`` = not a builtin."""
        if fname == "sum":
            return self.infer_elem(node.args[0]) if node.args else None
        if fname in ("min", "max"):
            if len(node.args) == 1:
                return self.infer_elem(node.args[0])
            known = {u for u in arg_units if u}
            return known.pop() if len(known) == 1 else None
        if fname in ("abs", "round", "int", "float"):
            return arg_units[0] if arg_units else None
        if fname in ("len", "sorted", "list", "set", "tuple", "dict",
                     "frozenset", "reversed", "range", "enumerate",
                     "zip", "print", "isinstance", "repr", "str"):
            return None
        return NotImplemented

    def check_args(self, node: ast.Call, fn: FunctionInfo, summ: Summary,
                   arg_units: list[str | None],
                   kw_units: dict[str, str | None]) -> None:
        pairs: list[tuple[str, str | None, ast.expr]] = []
        for i, arg in enumerate(node.args):
            if isinstance(arg, ast.Starred):
                break
            if i >= len(fn.params):
                break
            pairs.append((fn.params[i], arg_units[i], arg))
        for kw in node.keywords:
            if kw.arg is not None:
                pairs.append((kw.arg, kw_units[kw.arg], kw.value))
        for pname, arg_unit, arg in pairs:
            declared = summ.param_units.get(pname)
            if declared and arg_unit and declared != arg_unit:
                rule = ("U002" if (declared in ADDRESS_SPACES
                                   or arg_unit in ADDRESS_SPACES)
                        else "U003")
                self.analysis_emit(
                    rule, arg,
                    f"{arg_unit} value passed to parameter '{pname}' of "
                    f"{fn.name}() which expects {declared}")
            declared_elem = summ.param_elems.get(pname)
            arg_elem = self.infer_elem(arg)
            if (declared_elem and arg_elem and declared_elem != arg_elem
                    and (declared_elem in ADDRESS_SPACES
                         or arg_elem in ADDRESS_SPACES)):
                self.analysis_emit(
                    "U002", arg,
                    f"container of {arg_elem} passed to parameter "
                    f"'{pname}' of {fn.name}() which expects "
                    f"{declared_elem} elements")

    # -- container facts ---------------------------------------------------

    def container_domain(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            return self.domains.get(node.id) or name_domain(node.id)
        if isinstance(node, ast.Attribute):
            info = self.attr_fact(node)
            if info is not None and info.key_domain:
                return info.key_domain
            return name_domain(node.attr)
        return None

    def infer_elem(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Name):
            if node.id in self.elems:
                return self.elems[node.id]
            return name_elem(node.id)
        if isinstance(node, ast.Attribute):
            info = self.attr_fact(node)
            if info is not None:
                return info.elem
            return name_elem(node.attr)
        if isinstance(node, (ast.List, ast.Set, ast.Tuple)):
            known = {self.infer(elt) for elt in node.elts}
            known.discard(None)
            return known.pop() if len(known) == 1 else None
        if isinstance(node, ast.Call):
            return self._call_elem(node)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.GeneratorExp)):
            return self.comp_elem(node)
        if isinstance(node, ast.IfExp):
            a, b = self.infer_elem(node.body), self.infer_elem(node.orelse)
            return a if a == b else None
        if isinstance(node, ast.Subscript) and isinstance(
                node.slice, ast.Slice):
            return self.infer_elem(node.value)
        return None

    def _call_elem(self, node: ast.Call) -> str | None:
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "range":
                known = {self.infer(arg) for arg in node.args}
                known.discard(None)
                return known.pop() if len(known) == 1 else None
            if func.id in ("sorted", "list", "set", "tuple", "frozenset",
                           "reversed") and node.args:
                return self.infer_elem(node.args[0])
        if isinstance(func, ast.Attribute):
            if func.attr == "keys":
                return self.container_domain(func.value)
            if func.attr in ("values", "copy"):
                return self.infer_elem(func.value)
        resolved = self.analysis.index.resolve_call(
            node, self.module, self.enclosing_class, self.local_types)
        if resolved is not None:
            summ = self.analysis.summaries.get(resolved.qualname)
            return summ.return_elem if summ is not None else None
        fname = _ann_name(func)
        if fname is not None:
            return name_elem(fname)
        return None

    def comp_elem(self, node: "ast.ListComp | ast.SetComp | ast.GeneratorExp",
                  ) -> str | None:
        self.do_generators(node.generators)
        return self.infer(node.elt)

    def do_generators(self, generators: list[ast.comprehension]) -> None:
        for gen in generators:
            self.infer(gen.iter)
            elem = self.infer_elem(gen.iter)
            self.bind(gen.target, elem, None, None, None)
            for cond in gen.ifs:
                self.infer(cond)

    # -- reporting ---------------------------------------------------------

    def flag_mix(self, a: str, b: str, node: ast.AST, verb: str) -> None:
        if frozenset((a, b)) in CONVERTIBLE:
            self.analysis_emit(
                "U003", node,
                f"unconverted units: {a} {verb} {b} (scale with "
                f"KIB/US/SEC before crossing this boundary)")
        elif a in ADDRESS_SPACES or b in ADDRESS_SPACES:
            self.analysis_emit(
                "U002", node, f"address-space confusion: {a} {verb} {b}")
        else:
            self.analysis_emit(
                "U001", node, f"mixed-unit arithmetic: {a} {verb} {b}")

    def analysis_emit(self, rule: str, node: ast.AST, message: str) -> None:
        self.analysis.emit(rule, self.src.relpath, node, message)


class _UnitsRule(Rule):
    """Base for the U-family: filter the shared analysis by rule id."""

    def check_project(self, ctx: ProjectContext) -> Iterator[Violation]:
        if ctx.sources:
            yield from ctx.shared(UnitsAnalysis).findings(self.id)


class MixedUnitArithmeticRule(_UnitsRule):
    """U001: arithmetic or comparison across unrelated dimensions."""

    id = "U001"
    title = "mixed-unit arithmetic (ms vs bytes vs counts)"


class AddressSpaceConfusionRule(_UnitsRule):
    """U002: LSN/LPN/PPN values crossing into the wrong address space."""

    id = "U002"
    title = "address-space confusion (lsn/lpn/ppn interchange)"


class LossyBoundaryCrossingRule(_UnitsRule):
    """U003: convertible units crossing a boundary without their factor."""

    id = "U003"
    title = "unconverted or double-converted unit boundary crossing"
