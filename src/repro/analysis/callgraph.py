"""Project-wide symbol table, call graph and typing for interprocedural rules.

The per-file rules see one module at a time; the unit (U), effect (M)
and cache-key (K) passes follow values across calls, into attributes
and up base-class chains.  This module builds the one cross-module
index all three read, with nothing but ``ast``:

* :class:`FunctionInfo` — one function or method: its parameters, its
  annotations, its own statements (:attr:`FunctionInfo.statements`),
  and where it lives;
* :class:`ClassInfo` — methods, base-class names, and three attribute
  tables filled by one walk of the class: ``self.x = Cls()``
  constructions, every ``name: T`` / ``self.name: T`` annotation, and
  the class-body fields that are not ``ClassVar``;
* :class:`ModuleInfo` — import aliases (``import numpy as np``,
  ``from ..nand.block import Block``) resolved to package-relative
  module paths, and the module-level ``NAME = value`` bindings;
* :class:`ProjectIndex` — the whole tree, plus the class and type facts
  the passes share:

  - :meth:`~ProjectIndex.base_chain` — a class and its bases, left to
    right, depth first, each class once; method lookup, attribute
    typing and the K pass's class liveness all walk it;
  - :meth:`~ProjectIndex.annotation` — the one annotation normaliser
    (string annotations parsed once per node, ``X | None`` and
    ``Optional[X]`` reduced to ``X``), read by
    :meth:`~ProjectIndex.annotated_class` and the U pass's unit reader;
  - :meth:`~ProjectIndex.expr_type` and the memoized
    :meth:`~ProjectIndex.local_types` — instance classes of expressions
    and locals, from parameter, field and return annotations,
    constructor calls and container element annotations;
  - :meth:`~ProjectIndex.module_value` — a module-level literal,
    followed through a from-import;
  - :meth:`~ProjectIndex.resolve_call` — the :class:`FunctionInfo` an
    ``ast.Call`` invokes (or ``None`` — resolution is deliberately
    conservative: an ambiguous name resolves to nothing rather than to
    a guess).

Resolution handles the shapes that occur in this codebase: direct names,
``module.func``, ``Cls(...)`` constructors, ``ClassName.method`` and
methods on any receiver :meth:`~ProjectIndex.expr_type` can type
(``self.method``, inherited methods, ``self.attr.method``,
``var.method``).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterator, Mapping

from .core import SourceFile, walk

#: Statements that open a scope of their own.
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

#: Container heads whose element annotation types the elements
#: (``tenants: tuple[TenantSpec, ...]`` types ``for t in self.tenants``).
CONTAINER_HEADS = frozenset({
    "tuple", "Tuple", "list", "List", "set", "Set", "frozenset",
    "FrozenSet", "Sequence", "Iterable", "Iterator", "Collection", "deque",
})


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

    @cached_property
    def statements(self) -> list[ast.stmt]:
        """Statements of this function's own body, in source order.

        Nested defs and their bodies are excluded.  Expressions hold no
        statements, so only statement children and the bodies of
        ``except`` handlers and ``match`` cases are followed.
        """
        out: list[ast.stmt] = []
        pending: list[ast.stmt] = list(self.node.body)
        while pending:
            stmt = pending.pop()
            if isinstance(stmt, _DEFS):
                continue
            out.append(stmt)
            for name in stmt._fields:
                value = getattr(stmt, name, None)
                if not isinstance(value, list):
                    continue
                for child in value:
                    if isinstance(child, ast.stmt):
                        pending.append(child)
                    elif isinstance(child, (ast.ExceptHandler, ast.match_case)):
                        pending.extend(child.body)
        out.sort(key=lambda s: (s.lineno, s.col_offset))
        return out


@dataclass(eq=False)
class ClassInfo:
    """One class definition and what is known about its instances."""

    relpath: str
    name: str
    #: Base-class *names* as written (``BaseFTL``, ``abc.ABC``, …); read
    #: them through :meth:`ProjectIndex.base_chain`.
    base_names: list[str] = field(default_factory=list)
    methods: dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.<attr> = Cls(...)`` assignments seen anywhere in the class:
    #: attribute name -> class name as written at the construction site.
    attr_class_names: dict[str, str] = field(default_factory=dict)
    #: Every ``name: T`` and ``self.name: T`` anywhere in the class:
    #: attribute name -> annotation (the last one in walk order).
    annotations: dict[str, ast.expr] = field(default_factory=dict)
    #: Dataclass-style fields: class-body ``name: T`` entries that are
    #: not ``ClassVar``, in body order.
    fields: dict[str, ast.expr] = field(default_factory=dict)


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
    #: Module-level ``NAME = value`` bindings (the last one wins).
    values: dict[str, ast.expr] = field(default_factory=dict)


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


class ProjectIndex:
    """Symbol table, call graph and shared typing over one linted tree."""

    def __init__(self) -> None:
        self.modules: dict[str, ModuleInfo] = {}          # by relpath
        self.modules_by_key: dict[str, ModuleInfo] = {}   # by dotted key
        self.classes_by_name: dict[str, list[ClassInfo]] = {}
        self.functions: dict[str, FunctionInfo] = {}      # by qualname
        self._chains: dict[ClassInfo, list[ClassInfo]] = {}
        self._annotations: dict[ast.expr, ast.expr] = {}
        self._local_types: dict[str, dict[str, ClassInfo]] = {}

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
            elif (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                  and isinstance(stmt.targets[0], ast.Name)):
                mod.values[stmt.targets[0].id] = stmt.value

    def _index_class(self, mod: ModuleInfo, relpath: str,
                     node: ast.ClassDef) -> None:
        info = ClassInfo(relpath=relpath, name=node.name)
        info.base_names = [b for b in map(_base_name, node.bases)
                           if b is not None]
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info.methods[stmt.name] = self._make_function(
                    relpath, stmt, info)
            elif (isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)):
                ann = self.annotation(stmt.annotation)
                head = ann.value if isinstance(ann, ast.Subscript) else ann
                if self.annotated_class(head) != "ClassVar":
                    info.fields[stmt.target.id] = stmt.annotation
        # Anywhere inside the class body, ``name: T`` / ``self.name: T``
        # annotates the attribute, and ``self.<attr> = Cls(...)`` gives it
        # a class; conditional rebinding to a different class (e.g.
        # ``x if cond else None``) simply leaves no entry.
        for sub in walk(node):
            if isinstance(sub, ast.AnnAssign):
                if isinstance(sub.target, ast.Name):
                    info.annotations[sub.target.id] = sub.annotation
                elif (isinstance(sub.target, ast.Attribute)
                      and isinstance(sub.target.value, ast.Name)
                      and sub.target.value.id == "self"):
                    info.annotations[sub.target.attr] = sub.annotation
                continue
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

    # -- names -------------------------------------------------------------

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

    def module_value(self, name: str, module: ModuleInfo,
                     ) -> tuple[ModuleInfo, ast.expr] | None:
        """``(defining module, value)`` of a module-level ``NAME = value``.

        ``name`` is looked up in ``module``, or followed through its
        from-import to the module that binds it.
        """
        imp = module.from_imports.get(name)
        if imp is not None:
            origin = self.modules_by_key.get(imp[0])
            if origin is None:
                return None
            module, name = origin, imp[1]
        value = module.values.get(name)
        return None if value is None else (module, value)

    # -- classes -----------------------------------------------------------

    def base_chain(self, cls: ClassInfo) -> list[ClassInfo]:
        """``cls`` and its resolvable bases: left to right, depth first,
        each class once (the nearest definition of a name comes first)."""
        chain = self._chains.get(cls)
        if chain is None:
            chain = []
            pending = [cls]
            while pending:
                cur = pending.pop()
                if cur in chain:
                    continue
                chain.append(cur)
                module = self.modules[cur.relpath]
                bases = [self.resolve_class_name(b, module)
                         for b in cur.base_names]
                pending.extend(b for b in reversed(bases) if b is not None)
            self._chains[cls] = chain
        return chain

    def class_method(self, cls: ClassInfo, name: str) -> FunctionInfo | None:
        """``name`` on ``cls`` or on the nearest base that defines it."""
        for cur in self.base_chain(cls):
            found = cur.methods.get(name)
            if found is not None:
                return found
        return None

    def attr_type(self, cls: ClassInfo, attr: str,
                  element: bool = False) -> ClassInfo | None:
        """Class of ``obj.<attr>`` (with ``element``, of its elements) for
        an ``obj`` of class ``cls``.

        A field annotation on the nearest class that has one wins; a
        ``self.<attr> = Cls(...)`` construction is the fallback.
        """
        for cur in self.base_chain(cls):
            found = self.annotated_type(cur.fields.get(attr),
                                        self.modules[cur.relpath], element)
            if found is not None:
                return found
        if element:
            return None
        for cur in self.base_chain(cls):
            constructed = cur.attr_class_names.get(attr)
            if constructed is not None:
                return self.resolve_class_name(constructed,
                                               self.modules[cur.relpath])
        return None

    # -- annotations -------------------------------------------------------

    def annotation(self, node: ast.expr | None) -> ast.expr | None:
        """``node`` with the optional wrapper taken off.

        A string annotation (``"Block"``, as written under ``from
        __future__ import annotations`` or for forward references) is
        parsed, once per node; one that does not parse stays the string
        constant.  ``X | None`` and ``Optional[X]`` become ``X``.
        """
        if node is None:
            return None
        done = self._annotations.get(node)
        if done is None:
            done = self._annotations[node] = self._unwrap(node)
        return done

    def _unwrap(self, node: ast.expr) -> ast.expr:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            try:
                parsed = ast.parse(node.value, mode="eval").body
            except SyntaxError:
                return node
            return self._unwrap(parsed)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.BitOr):
            sides = [s for s in (node.left, node.right)
                     if not (isinstance(s, ast.Constant) and s.value is None)]
            if len(sides) == 1:
                return self._unwrap(sides[0])
        elif (isinstance(node, ast.Subscript)
              and self.annotated_class(node.value) == "Optional"
              and not isinstance(node.slice, ast.Tuple)):
            return self._unwrap(node.slice)
        return node

    def annotated_class(self, node: ast.expr | None,
                        element: bool = False) -> str | None:
        """Class name an annotation pins a value to, if any.

        With ``element``, the one class a container annotation pins its
        elements to (``tuple[TenantSpec, ...]``, ``list["Block"]``).
        Unions of two real classes, mixed containers and anything
        fancier yield ``None`` — the passes would rather drop a fact
        than guess one.
        """
        node = self.annotation(node)
        if element:
            if not (isinstance(node, ast.Subscript)
                    and self.annotated_class(node.value) in CONTAINER_HEADS):
                return None
            elts = (node.slice.elts if isinstance(node.slice, ast.Tuple)
                    else [node.slice])
            names = {self.annotated_class(e) for e in elts
                     if not (isinstance(e, ast.Constant)
                             and e.value is Ellipsis)}
            names.discard(None)
            return names.pop() if len(names) == 1 else None
        if isinstance(node, ast.Name):
            return node.id
        if isinstance(node, ast.Attribute):
            return node.attr
        return None

    def annotated_type(self, node: ast.expr | None, module: ModuleInfo,
                       element: bool = False) -> ClassInfo | None:
        """:meth:`annotated_class`, resolved to a class in ``module``."""
        name = self.annotated_class(node, element)
        return None if name is None else self.resolve_class_name(name, module)

    # -- expression typing -------------------------------------------------

    def expr_type(self, expr: ast.expr, module: ModuleInfo,
                  cls: ClassInfo | None, types: Mapping[str, ClassInfo],
                  element: bool = False) -> ClassInfo | None:
        """Instance class ``expr`` evaluates to, if the index can tell.

        ``cls`` types ``self``/``cls``; ``types`` maps local names to
        instance classes.  With ``element``, the class of the elements
        of the container ``expr`` evaluates to.
        """
        if isinstance(expr, ast.Attribute):
            owner = self.expr_type(expr.value, module, cls, types)
            if owner is None:
                return None
            return self.attr_type(owner, expr.attr, element)
        if element:
            return None
        if isinstance(expr, ast.Name):
            if expr.id in ("self", "cls") and cls is not None:
                return cls
            return types.get(expr.id)
        if isinstance(expr, ast.Subscript):
            return self.expr_type(expr.value, module, cls, types, True)
        if isinstance(expr, ast.Call):
            if isinstance(expr.func, ast.Name):
                constructed = self.resolve_class_name(expr.func.id, module)
                if constructed is not None:
                    return constructed
            callee = self.resolve_call(expr, module, cls, types)
            if callee is not None:
                return self.annotated_type(callee.node.returns,
                                           self.modules[callee.relpath])
        return None

    def param_types(self, fn: FunctionInfo) -> dict[str, ClassInfo]:
        """Parameter name -> instance class, from ``p: Cls`` annotations."""
        module = self.modules[fn.relpath]
        out: dict[str, ClassInfo] = {}
        for name, ann in zip(fn.params, fn.param_annotations):
            cls = self.annotated_type(ann, module)
            if cls is not None:
                out[name] = cls
        return out

    def local_types(self, fn: FunctionInfo) -> dict[str, ClassInfo]:
        """Instance classes of ``fn``'s parameters and locals.

        One forward pass over :attr:`FunctionInfo.statements`: ``x =
        <typed expr>``, ``x: Cls`` and ``for x in <typed container>``
        bind; the last binding of a name wins.  Memoized per function.
        """
        types = self._local_types.get(fn.qualname)
        if types is not None:
            return types
        module = self.modules[fn.relpath]
        types = self.param_types(fn)
        for stmt in fn.statements:
            if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                    and isinstance(stmt.targets[0], ast.Name)):
                target = stmt.targets[0].id
                found = self.expr_type(stmt.value, module, fn.cls, types)
            elif (isinstance(stmt, ast.AnnAssign)
                  and isinstance(stmt.target, ast.Name)):
                target = stmt.target.id
                found = self.annotated_type(stmt.annotation, module)
            elif (isinstance(stmt, (ast.For, ast.AsyncFor))
                  and isinstance(stmt.target, ast.Name)):
                target = stmt.target.id
                found = self.expr_type(stmt.iter, module, fn.cls, types, True)
            else:
                continue
            if found is not None:
                types[target] = found
        self._local_types[fn.qualname] = types
        return types

    # -- calls -------------------------------------------------------------

    def resolve_call(self, call: ast.Call, module: ModuleInfo,
                     enclosing_class: ClassInfo | None,
                     local_types: Mapping[str, ClassInfo] | None = None,
                     ) -> FunctionInfo | None:
        """The :class:`FunctionInfo` an ``ast.Call`` invokes, if resolvable.

        ``local_types`` maps local variable names to instance classes
        (maintained by the caller's flow analysis, or
        :meth:`local_types`).
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
        # self.method(...), self.attr.method(...), var.method(...), …
        owner_cls = self.expr_type(owner, module, enclosing_class,
                                   local_types or {})
        if owner_cls is not None:
            return self.class_method(owner_cls, method)
        if isinstance(owner, ast.Name):
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
