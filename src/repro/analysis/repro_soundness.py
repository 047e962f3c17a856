"""Cache-key soundness dataflow (rules K001–K003).

The content-addressed result cache (:mod:`repro.experiments.cache`) is
only sound if the SHA-256 cell key captures *everything* that influences
a :class:`~repro.sim.simulator.SimulationResult`.  Today that contract
is enforced dynamically (the hypothesis suites replay cells and compare
bytes), which means a new config knob that misses the key silently
serves stale hits until a test happens to vary it.  This module makes
the contract a lint-time fact on top of the
:class:`~repro.analysis.callgraph.ProjectIndex` symbol table:

* the **cached entry points** are the process-pool worker functions
  (``simulate_cell`` / ``simulate_fleet_device``); everything reachable
  from them — through resolved call edges plus a class-liveness closure
  (a constructed or registry-referenced class makes all of its methods
  reachable, which is how the ``SCHEMES[...]`` dispatch is followed) —
  runs *inside* a cached cell;
* every **key-bearing config class** (:data:`KEY_CLASSES`) has a
  canonical-JSON emitter — the nearest ``to_dict`` on the class or its
  bases (the :class:`~repro.record.Record` codec's, unless a class
  overrides it), or plain ``dataclasses.asdict`` when none exists —
  whose emitted key set is recovered from the AST (dict literals,
  ``out["k"] = …`` stores, dict comprehensions over module-level literal
  registries); an emitter that iterates ``dataclasses.fields(self)`` /
  ``asdict(self)`` is *structurally complete* and covers every field by
  construction;
* three rules fire on those facts:

  ======== ==========================================================
  ``K001`` a dataclass field of a key class is read inside a cached
           cell but absent from the class's canonical-key emission —
           the knob changes results without changing the key
  ``K002`` an ambient input (``os.environ``, ``open``/``Path.read_*``,
           ``platform.*``, ``sys.version*``) is read inside a cached
           cell outside the allowlist — the cell's outcome depends on
           state the key cannot see
  ``K003`` a canonical-key emitter enumerates its keys explicitly and
           omits a dataclass field — fails structurally even before
           any read of the field exists
  ======== ==========================================================

The analysis is deliberately conservative in the same way the effect
pass is: an unresolvable call edge or an untypeable expression drops
facts rather than inventing them, so unknown code never fires a rule.
"""

from __future__ import annotations

import ast
from typing import Iterator, Mapping

from .callgraph import ClassInfo, FunctionInfo, ModuleInfo
from .core import (ProjectContext, ProjectPass, Rule, Violation,
                   dotted_name, walk)

#: Config classes whose fields feed the canonical cache keys.  The five
#: top-level ones are named by the cell/device key payloads; the section
#: and tenant classes are nested inside them and share the contract.
KEY_CLASSES = frozenset({
    "SSDConfig", "GeometryConfig", "TimingConfig", "ReliabilityConfig",
    "CacheConfig", "TranslationConfig", "TraceProfile", "FaultConfig",
    "FrontendConfig", "FleetConfig", "TenantSpec",
})

#: Module-level functions whose call trees run inside a cached cell
#: (the process-pool worker entry points of ``experiments/parallel.py``).
ENTRY_POINTS = frozenset({"simulate_cell", "simulate_fleet_device"})

#: Files whose ambient reads K002 accepts, and why:
#:
#: * ``experiments/cache.py`` — the cache itself (``REPRO_CACHE_DIR``,
#:   entry files): where a result is *stored* never changes what it is;
#: * ``experiments/parallel.py`` — ``resolve_jobs`` reads ``REPRO_JOBS``
#:   to size the pool; the worker count never influences results
#:   (``tests/test_parallel.py`` pins parallel == sequential bytes);
#: * ``fleet/checkpoint.py`` — resume reads a snapshot that is itself a
#:   pure function of the keyed :class:`~repro.fleet.FleetConfig` (the
#:   store is addressed by ``device_key`` and version-checked on load;
#:   ``tests/test_checkpoint.py`` pins resume bit-identity);
#: * ``cli.py`` — argument plumbing around the cells, not the cells
#:   themselves.
K002_ALLOWED_FILES = frozenset({
    "experiments/cache.py", "experiments/parallel.py",
    "fleet/checkpoint.py", "cli.py",
})

#: Callable names that make an emitter structurally complete when
#: applied to the object being serialised.
_STRUCTURAL_CALLS = frozenset({"fields", "asdict"})


class SoundnessAnalysis(ProjectPass):
    """One whole-tree cache-key soundness pass shared by the K-rules."""

    def __init__(self, ctx: ProjectContext) -> None:
        super().__init__(ctx)
        #: qualname -> entry-point name that first reached the function.
        self.reachable: dict[str, str] = {}
        self._live: set[ClassInfo] = set()
        self._coverage_memo: dict[
            ClassInfo, tuple[frozenset[str] | None, FunctionInfo | None]] = {}
        self._registry_memo: dict[ast.expr, tuple[ClassInfo, ...]] = {}
        self._compute_reachability()
        self._check_k003()
        self._check_reads()

    # -- reachability ------------------------------------------------------

    def _compute_reachability(self) -> None:
        worklist: list[tuple[FunctionInfo, str]] = []
        for relpath in sorted(self.index.modules):
            mod = self.index.modules[relpath]
            for name in sorted(mod.functions):
                if name in ENTRY_POINTS:
                    worklist.append((mod.functions[name], name))
        while worklist:
            fn, entry = worklist.pop()
            if fn.qualname in self.reachable:
                continue
            self.reachable[fn.qualname] = entry
            self._scan_function(fn, entry, worklist)

    def _mark_live(self, cls: ClassInfo, entry: str,
                   worklist: list[tuple[FunctionInfo, str]]) -> None:
        """A live class runs inside the cell: all its methods do too."""
        if cls in self._live:
            return
        self._live.add(cls)
        for cur in self.index.base_chain(cls):
            for name in sorted(cur.methods):
                worklist.append((cur.methods[name], entry))

    def _registry_classes(self, name: str,
                          module: ModuleInfo) -> tuple[ClassInfo, ...]:
        """Classes inside a module-level literal registry named ``name``.

        Resolves ``SCHEMES[cfg.scheme](dev_cfg)``-style dispatch: the
        name is followed through its from-import to the module-level
        ``dict``/``list``/``tuple``/``set`` literal, and every class
        referenced inside the literal is returned.
        """
        found = self.index.module_value(name, module)
        if found is None or not isinstance(
                found[1], (ast.Dict, ast.List, ast.Tuple, ast.Set)):
            return ()
        origin, literal = found
        cached = self._registry_memo.get(literal)
        if cached is not None:
            return cached
        out: list[ClassInfo] = []
        for sub in walk(literal):
            if isinstance(sub, ast.Name):
                cls = self.index.resolve_class_name(sub.id, origin)
                if cls is not None:
                    out.append(cls)
        result = self._registry_memo[literal] = tuple(out)
        return result

    def _scan_function(self, fn: FunctionInfo, entry: str,
                       worklist: list[tuple[FunctionInfo, str]]) -> None:
        module = self.index.modules[fn.relpath]
        types = self.index.local_types(fn)
        for node in walk(fn.node):
            if isinstance(node, ast.Call):
                resolved = self.index.resolve_call(node, module, fn.cls,
                                                   types)
                if resolved is not None:
                    worklist.append((resolved, entry))
            elif isinstance(node, ast.Name) and isinstance(node.ctx,
                                                           ast.Load):
                cls = self.index.resolve_class_name(node.id, module)
                if cls is not None:
                    self._mark_live(cls, entry, worklist)
                    continue
                for reg_cls in self._registry_classes(node.id, module):
                    self._mark_live(reg_cls, entry, worklist)

    # -- canonical-key coverage --------------------------------------------

    def _find_emitter(self, cls: ClassInfo) -> FunctionInfo | None:
        """The canonical-JSON emitter of a key class, if it has one."""
        for cur in self.index.base_chain(cls):
            if "to_dict" in cur.methods:
                return cur.methods["to_dict"]
        return None

    def _dictcomp_keys(self, node: ast.DictComp,
                       module: ModuleInfo) -> set[str]:
        """Constant keys of ``{name: … for name in REGISTRY}`` comps."""
        if not (isinstance(node.key, ast.Name) and len(node.generators) == 1):
            return set()
        gen = node.generators[0]
        if not (isinstance(gen.target, ast.Name)
                and gen.target.id == node.key.id
                and isinstance(gen.iter, ast.Name)):
            return set()
        found = self.index.module_value(gen.iter.id, module)
        value = found[1] if found is not None else None
        if isinstance(value, ast.Dict):
            return {k.value for k in value.keys
                    if isinstance(k, ast.Constant)
                    and isinstance(k.value, str)}
        if isinstance(value, (ast.List, ast.Tuple, ast.Set)):
            return {e.value for e in value.elts
                    if isinstance(e, ast.Constant)
                    and isinstance(e.value, str)}
        return set()

    def _emitted_keys(self, emitter: FunctionInfo,
                      ) -> frozenset[str] | None:
        """Keys the emitter writes, or ``None`` if structurally complete."""
        module = self.index.modules[emitter.relpath]
        targets = {"self", "cls"}
        if emitter.params:
            targets.add(emitter.params[0])
        keys: set[str] = set()
        for node in walk(emitter.node):
            if isinstance(node, ast.Call):
                name = (dotted_name(node.func) or "").rsplit(".", 1)[-1]
                if (name in _STRUCTURAL_CALLS and node.args
                        and isinstance(node.args[0], ast.Name)
                        and node.args[0].id in targets):
                    return None
            elif isinstance(node, ast.Dict):
                keys.update(k.value for k in node.keys
                            if isinstance(k, ast.Constant)
                            and isinstance(k.value, str))
            elif isinstance(node, ast.DictComp):
                keys.update(self._dictcomp_keys(node, module))
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    if (isinstance(target, ast.Subscript)
                            and isinstance(target.slice, ast.Constant)
                            and isinstance(target.slice.value, str)):
                        keys.add(target.slice.value)
        return frozenset(keys)

    def _coverage(self, cls: ClassInfo,
                  ) -> tuple[frozenset[str] | None, FunctionInfo | None]:
        """``(emitted keys | None for all-covered, emitter fn | None)``."""
        cached = self._coverage_memo.get(cls)
        if cached is not None:
            return cached
        emitter = self._find_emitter(cls)
        emitted = self._emitted_keys(emitter) if emitter is not None else None
        result = (emitted, emitter)
        self._coverage_memo[cls] = result
        return result

    def _emitter_label(self, cls: ClassInfo,
                       emitter: FunctionInfo | None) -> str:
        if emitter is None:
            return "dataclasses.asdict"
        if emitter.cls is not None:
            return f"{emitter.cls.name}.{emitter.name}()"
        return f"{emitter.name}()"

    # -- K003: emitter completeness ----------------------------------------

    def _check_k003(self) -> None:
        for name in sorted(KEY_CLASSES):
            for cls in self.index.classes_by_name.get(name, []):
                emitted, emitter = self._coverage(cls)
                if emitted is None or emitter is None:
                    continue
                for field_name in sorted(cls.fields):
                    if field_name in emitted:
                        continue
                    self.emit(
                        "K003", emitter.relpath, emitter.node,
                        f"canonical-key emitter "
                        f"{self._emitter_label(cls, emitter)} omits "
                        f"dataclass field '{cls.name}.{field_name}' — "
                        f"every field must reach the cache key (emit it, "
                        f"or iterate dataclasses.fields(self))")

    # -- K001/K002: reads inside cached cells ------------------------------

    def _check_reads(self) -> None:
        for qual in sorted(self.reachable):
            fn = self.index.functions.get(qual)
            if fn is None:
                continue
            entry = self.reachable[qual]
            module = self.index.modules[fn.relpath]
            types = self.index.local_types(fn)
            self._check_k001(fn, entry, module, types)
            if fn.relpath not in K002_ALLOWED_FILES:
                self._check_k002(fn, entry)

    def _check_k001(self, fn: FunctionInfo, entry: str, module: ModuleInfo,
                    types: Mapping[str, ClassInfo]) -> None:
        for node in walk(fn.node):
            if not (isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Load)):
                continue
            base = self.index.expr_type(node.value, module, fn.cls, types)
            if base is None or base.name not in KEY_CLASSES:
                continue
            if node.attr not in base.fields:
                continue  # property/method access, not a stored field
            emitted, emitter = self._coverage(base)
            if emitted is None or node.attr in emitted:
                continue
            self.emit(
                "K001", fn.relpath, node,
                f"'{base.name}.{node.attr}' is read in {fn.name}() "
                f"(reachable from cached entry point {entry}()) but "
                f"missing from the canonical key "
                f"({self._emitter_label(base, emitter)}) — the knob "
                f"changes results without changing the cache key, so "
                f"stale hits would be served")

    def _check_k002(self, fn: FunctionInfo, entry: str) -> None:
        for node in walk(fn.node):
            what: str | None = None
            if isinstance(node, ast.Call):
                dn = dotted_name(node.func) or ""
                if dn == "os.getenv":
                    what = "os.getenv(...)"
                elif dn.startswith("platform."):
                    what = f"{dn}(...)"
                elif isinstance(node.func, ast.Name) \
                        and node.func.id == "open":
                    what = "open(...)"
                elif isinstance(node.func, ast.Attribute) \
                        and node.func.attr in ("read_text", "read_bytes"):
                    what = f".{node.func.attr}(...)"
            elif isinstance(node, ast.Attribute):
                dn = dotted_name(node) or ""
                if dn == "os.environ":
                    what = "os.environ"
                elif dn.startswith("sys.version"):
                    what = dn
            if what is None:
                continue
            self.emit(
                "K002", fn.relpath, node,
                f"ambient input {what} read in {fn.name}() (reachable "
                f"from cached entry point {entry}()) — a cached cell's "
                f"outcome may depend on state the cache key cannot see; "
                f"hoist it out of the cell or allowlist the file")


class _SoundnessRule(Rule):
    """Base for the K-family: filter the shared analysis by rule id."""

    def check_project(self, ctx: ProjectContext) -> Iterator[Violation]:
        if ctx.sources:
            yield from ctx.shared(SoundnessAnalysis).findings(self.id)


class CacheKeyTaintRule(_SoundnessRule):
    """K001: key-class field read in a cached cell but absent from the key."""

    id = "K001"
    title = "config field read in a cached cell is missing from the cache key"


class AmbientInputRule(_SoundnessRule):
    """K002: ambient input read inside a cached cell outside the allowlist."""

    id = "K002"
    title = "ambient input read inside a cached cell"


class CanonicalKeyCompletenessRule(_SoundnessRule):
    """K003: explicit canonical-key emitter omits a dataclass field."""

    id = "K003"
    title = "canonical-key emitter omits a dataclass field"
