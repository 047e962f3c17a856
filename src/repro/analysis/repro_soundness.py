"""Cache-key soundness dataflow (rule K002).

The content-addressed result cache (:mod:`repro.experiments.cache`) is
only sound if the SHA-256 cell key captures *everything* that influences
a :class:`~repro.sim.simulator.SimulationResult`.  Config fields reach
the key through the :class:`~repro.record.Record` codec, whose
``to_dict`` walks ``dataclasses.fields``; ``tests/test_record.py``
round-trips every ``Record`` subclass, so a field an override dropped
fails there.  What no round trip sees is state read from *outside* the
config, and this module makes that a lint-time fact on top of the
:class:`~repro.analysis.callgraph.ProjectIndex` symbol table:

* the **cached entry points** are the process-pool worker functions
  (``simulate_cell`` / ``simulate_fleet_device``); everything reachable
  from them — through resolved call edges plus a class-liveness closure
  (a constructed or registry-referenced class makes all of its methods
  reachable, which is how the ``SCHEMES[...]`` dispatch is followed) —
  runs *inside* a cached cell;
* ``K002`` fires on an ambient input (``os.environ``,
  ``open``/``Path.read_*``, ``platform.*``, ``sys.version*``) read
  inside a cached cell outside the allowlist — the cell's outcome
  depends on state the key cannot see.

The analysis is deliberately conservative in the same way the effect
pass is: an unresolvable call edge drops facts rather than inventing
them, so unknown code never fires the rule.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .callgraph import ClassInfo, FunctionInfo, ModuleInfo
from .core import (ProjectContext, ProjectPass, Rule, Violation,
                   dotted_name, walk)

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


class SoundnessAnalysis(ProjectPass):
    """One whole-tree cache-key soundness pass (K002)."""

    def __init__(self, ctx: ProjectContext) -> None:
        super().__init__(ctx)
        #: qualname -> entry-point name that first reached the function.
        self.reachable: dict[str, str] = {}
        self._live: set[ClassInfo] = set()
        self._registry_memo: dict[ast.expr, tuple[ClassInfo, ...]] = {}
        self._compute_reachability()
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

    # -- K002: ambient reads inside cached cells ----------------------------

    def _check_reads(self) -> None:
        for qual in sorted(self.reachable):
            fn = self.index.functions.get(qual)
            if fn is not None and fn.relpath not in K002_ALLOWED_FILES:
                self._check_k002(fn, self.reachable[qual])

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


class AmbientInputRule(Rule):
    """K002: ambient input read inside a cached cell outside the allowlist."""

    id = "K002"
    title = "ambient input read inside a cached cell"

    def check_project(self, ctx: ProjectContext) -> Iterator[Violation]:
        if ctx.sources:
            yield from ctx.shared(SoundnessAnalysis).findings(self.id)
