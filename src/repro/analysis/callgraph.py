"""Project-wide symbol table and call graph for interprocedural rules.

The per-file rules of PR 3 see one module at a time; the unit/dimension
checker (:mod:`repro.analysis.units_flow`) needs to follow a value from a
call site into the callee's parameters and back out of its ``return``.
This module builds the cross-module index that makes that possible, with
nothing but ``ast``:

* :class:`FunctionInfo` — one function or method: its parameters, its
  annotations, its body, and where it lives;
* :class:`ClassInfo` — methods, base-class names, and the inferred
  classes of ``self.<attr>`` instance attributes (from ``self.x = Cls()``
  assignments), so ``self.alloc.alloc_page(...)`` resolves through the
  attribute;
* :class:`ModuleInfo` — import aliases (``import numpy as np``,
  ``from ..nand.block import Block``) resolved to package-relative
  module paths;
* :class:`ProjectIndex` — the whole tree, plus :meth:`resolve_call`,
  which maps an ``ast.Call`` to the :class:`FunctionInfo` it invokes
  (or ``None`` — resolution is deliberately conservative: an ambiguous
  name resolves to nothing rather than to a guess).

Resolution handles the shapes that occur in this codebase: direct names,
``module.func``, ``self.method`` (including methods inherited from a
base class), ``self.attr.method`` / ``var.method`` through tracked
instance types, and ``Cls(...)`` constructors.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import Iterator, Mapping

from .core import SourceFile, walk


@dataclass
class FunctionInfo:
    """One function or method, as the dataflow layer sees it."""

    relpath: str                 #: module path relative to the linted root
    qualname: str                #: ``relpath::Class.method`` / ``relpath::func``
    name: str                    #: bare function name
    cls: "ClassInfo | None"      #: owning class, if a method
    node: ast.FunctionDef | ast.AsyncFunctionDef
    #: Positional-or-keyword parameter names, ``self``/``cls`` stripped.
    params: list[str] = field(default_factory=list)
    #: Parameter annotation nodes aligned with :attr:`params` (None = bare).
    param_annotations: list[ast.expr | None] = field(default_factory=list)

    @property
    def is_method(self) -> bool:
        return self.cls is not None


@dataclass
class ClassInfo:
    """One class definition and what is known about its instances."""

    relpath: str
    name: str
    node: ast.ClassDef
    #: Base-class *names* as written (``BaseFTL``, ``abc.ABC``, …).
    base_names: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr> = Cls(...)`` assignments seen anywhere in the class:
    #: attribute name -> class name as written at the construction site.
    attr_class_names: dict[str, str] = field(default_factory=dict)


@dataclass
class ModuleInfo:
    """Per-module symbols and import aliases."""

    relpath: str
    #: ``import x.y as z`` -> {"z": "x.y"}; plain ``import x.y`` -> {"x": "x"}.
    import_aliases: dict[str, str] = field(default_factory=dict)
    #: ``from mod import name as alias`` -> {"alias": (resolved_module, "name")}.
    #: ``resolved_module`` is a package-relative module key (see
    #: :func:`_resolve_module`), possibly pointing outside the tree.
    from_imports: dict[str, tuple[str, str]] = field(default_factory=dict)
    functions: dict[str, FunctionInfo] = field(default_factory=dict)
    classes: dict[str, ClassInfo] = field(default_factory=dict)


def _module_key(relpath: str) -> str:
    """Dotted package-relative key of a module path.

    ``ftl/mapping.py`` -> ``ftl.mapping``; ``ftl/__init__.py`` -> ``ftl``;
    ``units.py`` -> ``units``.
    """
    parts = relpath[:-3].split("/") if relpath.endswith(".py") else relpath.split("/")
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _resolve_module(importer_relpath: str, module: str | None, level: int) -> str:
    """Package-relative key of an imported module.

    Relative imports (``from ..config import X`` inside ``ftl/base.py``)
    resolve against the importer's package; absolute imports of the
    ``repro`` package itself are normalised by stripping the leading
    ``repro.`` so fixtures and the installed tree resolve alike.  Any
    other absolute import (``numpy``) keeps its dotted name and simply
    never matches a module in the index.
    """
    mod = module or ""
    if level == 0:
        if mod == "repro":
            return ""
        if mod.startswith("repro."):
            return mod[len("repro."):]
        return mod
    pkg_parts = importer_relpath.split("/")[:-1]  # package of the importer
    up = level - 1
    base = pkg_parts[:len(pkg_parts) - up] if up else pkg_parts
    return ".".join([p for p in base if p] + ([mod] if mod else []))


def _param_lists(node: ast.FunctionDef | ast.AsyncFunctionDef,
                 is_method: bool) -> tuple[list[str], list[ast.expr | None]]:
    args = node.args
    ordered = list(args.posonlyargs) + list(args.args)
    if is_method and ordered and ordered[0].arg in ("self", "cls"):
        ordered = ordered[1:]
    names = [a.arg for a in ordered]
    anns: list[ast.expr | None] = [a.annotation for a in ordered]
    for kw in args.kwonlyargs:
        names.append(kw.arg)
        anns.append(kw.annotation)
    return names, anns


def _base_name(expr: ast.expr) -> str | None:
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    if isinstance(expr, ast.Subscript):  # Generic[...] style bases
        return _base_name(expr.value)
    return None


def annotation_class_name(node: ast.expr | None) -> str | None:
    """Class name an annotation pins a value to, if any.

    Handles the shapes used in this codebase: ``Block``, ``"Block"``
    (string annotations under ``from __future__ import annotations``),
    ``Block | None`` and ``Optional[Block]``.  Unions of two real
    classes, containers, and anything fancier yield ``None`` — the
    effect pass would rather drop a call edge than guess one.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        try:
            node = ast.parse(node.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
        sides = [s for s in (node.left, node.right)
                 if not (isinstance(s, ast.Constant) and s.value is None)]
        if len(sides) == 1:
            return annotation_class_name(sides[0])
        return None
    if isinstance(node, ast.Subscript):
        if (annotation_class_name(node.value) == "Optional"
                and not isinstance(node.slice, ast.Tuple)):
            return annotation_class_name(node.slice)
        return None
    return None


class ProjectIndex:
    """Symbol table + call graph over one linted tree."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}          # by relpath
        self.modules_by_key: dict[str, ModuleInfo] = {}   # by dotted key
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        self.functions: dict[str, FunctionInfo] = {}      # by qualname

    # -- construction ------------------------------------------------------

    @classmethod
    def build(cls, sources: Mapping[str, SourceFile]) -> "ProjectIndex":
        index = cls()
        for relpath in sorted(sources):
            index._index_module(sources[relpath])
        return index

    def _index_module(self, src: SourceFile) -> None:
        mod = ModuleInfo(relpath=src.relpath)
        self.modules[src.relpath] = mod
        self.modules_by_key[_module_key(src.relpath)] = mod

        for node in src.nodes:
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    mod.import_aliases[local] = _resolve_module(
                        src.relpath, target, 0)
            elif isinstance(node, ast.ImportFrom):
                origin = _resolve_module(src.relpath, node.module, node.level)
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    mod.from_imports[alias.asname or alias.name] = (
                        origin, alias.name)

        for stmt in src.tree.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                mod.functions[stmt.name] = self._make_function(
                    src.relpath, stmt, None)
            elif isinstance(stmt, ast.ClassDef):
                self._index_class(mod, src.relpath, stmt)

    def _index_class(self, mod: ModuleInfo, relpath: str,
                     node: ast.ClassDef) -> None:
        info = ClassInfo(relpath=relpath, name=node.name, node=node)
        info.base_names = [b for b in map(_base_name, node.bases)
                           if b is not None]
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = self._make_function(
                    relpath, stmt, info)
        # self.<attr> = Cls(...) anywhere inside the class body gives the
        # attribute a class; conditional rebinding to a different class
        # (e.g. ``x if cond else None``) simply leaves no entry.
        for sub in walk(node):
            if not (isinstance(sub, ast.Assign)
                    and isinstance(sub.value, ast.Call)
                    and isinstance(sub.value.func, ast.Name)):
                continue
            for target in sub.targets:
                if (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    info.attr_class_names[target.attr] = sub.value.func.id
        mod.classes[node.name] = info
        self.classes_by_name.setdefault(node.name, []).append(info)

    def _make_function(self, relpath: str,
                       node: ast.FunctionDef | ast.AsyncFunctionDef,
                       cls: ClassInfo | None) -> FunctionInfo:
        params, anns = _param_lists(node, cls is not None)
        qual = (f"{relpath}::{cls.name}.{node.name}" if cls is not None
                else f"{relpath}::{node.name}")
        fn = FunctionInfo(relpath=relpath, qualname=qual, name=node.name,
                          cls=cls, node=node, params=params,
                          param_annotations=anns)
        self.functions[qual] = fn
        return fn

    # -- lookup ------------------------------------------------------------

    def iter_functions(self) -> Iterator[FunctionInfo]:
        for qual in sorted(self.functions):
            yield self.functions[qual]

    def resolve_class_name(self, name: str,
                           module: ModuleInfo) -> ClassInfo | None:
        """A class referred to by ``name`` inside ``module``, if unambiguous."""
        local = module.classes.get(name)
        if local is not None:
            return local
        imp = module.from_imports.get(name)
        if imp is not None:
            origin, original = imp
            target = self.modules_by_key.get(origin)
            if target is not None:
                found = target.classes.get(original)
                if found is not None:
                    return found
            # Re-exported through a package __init__: fall through to the
            # global registry under the original name.
            name = original
        candidates = self.classes_by_name.get(name, [])
        if len(candidates) == 1:
            return candidates[0]
        return None

    def class_method(self, cls: ClassInfo, name: str,
                     _depth: int = 0) -> FunctionInfo | None:
        """``name`` on ``cls`` or (breadth-first) on its base classes."""
        if _depth > 8:
            return None
        found = cls.methods.get(name)
        if found is not None:
            return found
        module = self.modules.get(cls.relpath)
        if module is None:
            return None
        for base_name in cls.base_names:
            base = self.resolve_class_name(base_name, module)
            if base is not None and base is not cls:
                found = self.class_method(base, name, _depth + 1)
                if found is not None:
                    return found
        return None

    def class_attr_type(self, cls: ClassInfo, attr: str,
                        _depth: int = 0) -> ClassInfo | None:
        """Class of ``self.<attr>`` instances, walking base classes."""
        if _depth > 8:
            return None
        module = self.modules.get(cls.relpath)
        cls_name = cls.attr_class_names.get(attr)
        if cls_name is not None and module is not None:
            return self.resolve_class_name(cls_name, module)
        if module is not None:
            for base_name in cls.base_names:
                base = self.resolve_class_name(base_name, module)
                if base is not None and base is not cls:
                    found = self.class_attr_type(base, attr, _depth + 1)
                    if found is not None:
                        return found
        return None

    def resolve_function_name(self, name: str,
                              module: ModuleInfo) -> FunctionInfo | None:
        """A module-level function referred to by ``name``."""
        local = module.functions.get(name)
        if local is not None:
            return local
        imp = module.from_imports.get(name)
        if imp is not None:
            origin, original = imp
            target = self.modules_by_key.get(origin)
            if target is not None:
                return target.functions.get(original)
        return None

    def imported_origin(self, name: str,
                        module: ModuleInfo) -> tuple[str, str] | None:
        """``(origin_module_key, original_name)`` for a from-import."""
        return module.from_imports.get(name)

    def resolve_call(self, call: ast.Call, module: ModuleInfo,
                     enclosing_class: ClassInfo | None,
                     local_types: Mapping[str, ClassInfo] | None = None,
                     ) -> FunctionInfo | None:
        """The :class:`FunctionInfo` an ``ast.Call`` invokes, if resolvable.

        ``local_types`` maps local variable names to instance classes
        (maintained by the caller's flow analysis).
        """
        func = call.func
        if isinstance(func, ast.Name):
            fn = self.resolve_function_name(func.id, module)
            if fn is not None:
                return fn
            # Cls(...) constructor -> __init__ (for argument checking).
            cls = self.resolve_class_name(func.id, module)
            if cls is not None:
                return self.class_method(cls, "__init__")
            return None
        if not isinstance(func, ast.Attribute):
            return None
        owner = func.value
        method = func.attr
        # self.method(...) / cls.method(...)
        if (isinstance(owner, ast.Name) and owner.id in ("self", "cls")
                and enclosing_class is not None):
            return self.class_method(enclosing_class, method)
        # self.attr.method(...)
        if (isinstance(owner, ast.Attribute)
                and isinstance(owner.value, ast.Name)
                and owner.value.id == "self" and enclosing_class is not None):
            attr_cls = self.class_attr_type(enclosing_class, owner.attr)
            if attr_cls is not None:
                return self.class_method(attr_cls, method)
            return None
        if isinstance(owner, ast.Name):
            # var.method(...) through a tracked instance type
            if local_types is not None:
                var_cls = local_types.get(owner.id)
                if var_cls is not None:
                    return self.class_method(var_cls, method)
            # module.func(...)
            alias = module.import_aliases.get(owner.id)
            if alias is not None:
                target = self.modules_by_key.get(alias)
                if target is not None:
                    fn = target.functions.get(method)
                    if fn is not None:
                        return fn
            # ClassName.method(...) (unbound / classmethod style)
            cls = self.resolve_class_name(owner.id, module)
            if cls is not None:
                return self.class_method(cls, method)
        return None

    def constructed_class(self, value: ast.expr,
                          module: ModuleInfo) -> ClassInfo | None:
        """Class of ``Cls(...)`` expressions (for instance-type tracking)."""
        if (isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)):
            return self.resolve_class_name(value.func.id, module)
        return None

    def param_types(self, fn: FunctionInfo,
                    module: ModuleInfo) -> dict[str, ClassInfo]:
        """Parameter name -> instance class, from ``p: Cls`` annotations.

        Seeds the ``local_types`` mapping of :meth:`resolve_call` so
        ``block.retire()`` resolves inside a function that takes
        ``block: Block`` — the effect/exception pass needs those edges
        to propagate raise/write facts through free functions.
        """
        out: dict[str, ClassInfo] = {}
        for name, ann in zip(fn.params, fn.param_annotations):
            cls_name = annotation_class_name(ann)
            if cls_name is None:
                continue
            cls = self.resolve_class_name(cls_name, module)
            if cls is not None:
                out[name] = cls
        return out
