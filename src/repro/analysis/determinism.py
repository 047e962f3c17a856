"""Determinism rules: D001 (randomness), D002 (wall clock), D003 (set order).

The parallel fan-out and the result cache are only sound because a
simulation cell is a pure function of its inputs (see ``docs/CACHING.md``).
These rules flag the three classic ways SSDsim-style simulators lose that
property silently: an unseeded random source, host wall time leaking into
modelled quantities, and iteration order of hash-based containers feeding
simulation state.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .core import Rule, SourceFile, Violation, dotted_name

# --------------------------------------------------------------------------
# D001 — randomness outside repro/rng.py


#: Modules whose import anywhere outside ``rng.py`` is a finding.
_RANDOM_MODULES = frozenset({"random", "uuid"})
#: Attribute-chain prefixes that reach an unseeded random source.
_RANDOM_PREFIXES = ("random.", "uuid.", "np.random.", "numpy.random.")
#: Exact dotted names that are findings on their own.
_RANDOM_NAMES = frozenset({"os.urandom"})
#: ``numpy.random`` generator constructors: building one of these outside
#: ``rng.py`` creates a random stream the seed-derivation scheme cannot
#: see, even when a seed is passed at the call site.
_NUMPY_RNG_CONSTRUCTORS = frozenset({
    "default_rng", "Generator", "RandomState",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937",
})


def numpy_bindings(
        nodes: Iterable[ast.AST]) -> "tuple[frozenset[str], dict[str, str]]":
    """Numpy-derived local bindings among a module's ``nodes``.

    Returns ``(aliases, ctor_names)``: names bound to the numpy package
    (``import numpy as X``), so ``X.random.Generator(...)`` is caught
    under any alias (the N-rules read ``np.<attr>`` through them too),
    and local names bound to a ``numpy.random`` generator constructor
    (``from numpy.random import default_rng as mk``) mapped back to the
    constructor they alias, so the *call* is flagged too, not just the
    import line.
    """
    aliases: set[str] = set()
    ctor_names: dict[str, str] = {}
    for node in nodes:
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "numpy":
                    aliases.add(alias.asname or "numpy")
        elif isinstance(node, ast.ImportFrom):
            if (node.module or "") == "numpy.random":
                for alias in node.names:
                    if alias.name in _NUMPY_RNG_CONSTRUCTORS:
                        ctor_names[alias.asname or alias.name] = alias.name
    return frozenset(aliases), ctor_names


class RandomnessRule(Rule):
    """D001: all randomness must flow through ``repro.rng``.

    ``make_rng(seed, key)`` derives independent, reproducible streams;
    ``np.random.default_rng()`` (no seed), the ``random`` module,
    ``os.urandom`` and ``uuid`` do not.  Constructing a
    ``numpy.random`` generator (``default_rng``/``Generator``/
    ``RandomState``/bit generators) outside ``rng.py`` is flagged even
    with an explicit seed: a stream built outside the derivation scheme
    can collide with a derived stream or drift from the experiment key.
    One stray source makes two replays of the same cell disagree and
    poisons every cached artifact.
    """

    id = "D001"
    title = "randomness outside repro/rng.py"

    #: Files allowed to touch the raw generators.
    ALLOWED = frozenset({"rng.py"})

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        if src.relpath in self.ALLOWED:
            return
        numpy_aliases, rng_ctor_names = numpy_bindings(src.nodes)
        rng_prefixes = tuple(f"{a}.random." for a in numpy_aliases)
        for node in src.nodes:
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in rng_ctor_names):
                yield self._v(
                    src, node,
                    f"construction of numpy.random generator "
                    f"{rng_ctor_names[node.func.id]!r}")
            if isinstance(node, ast.Import):
                for alias in node.names:
                    top = alias.name.split(".")[0]
                    if top in _RANDOM_MODULES or alias.name == "numpy.random":
                        yield self._v(src, node, f"import of {alias.name!r}")
            elif isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                top = mod.split(".")[0]
                if top in _RANDOM_MODULES or mod == "numpy.random":
                    yield self._v(src, node, f"import from {mod!r}")
                elif mod == "os" and any(a.name == "urandom" for a in node.names):
                    yield self._v(src, node, "import of os.urandom")
                elif mod == "numpy" and any(a.name == "random" for a in node.names):
                    yield self._v(src, node, "import of numpy.random")
            elif isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name is None:
                    continue
                if (name in _RANDOM_NAMES or name.startswith(_RANDOM_PREFIXES)
                        or name.startswith(rng_prefixes)):
                    yield self._v(src, node, f"use of {name!r}")

    def _v(self, src: SourceFile, node: ast.AST, what: str) -> Violation:
        return Violation(
            self.id, src.relpath, node.lineno, node.col_offset,
            f"{what}: all randomness must flow through "
            f"repro.rng.make_rng/spawn so replays stay reproducible")


# --------------------------------------------------------------------------
# D002 — wall clock outside the diagnostic allowlist


#: Dotted names that read the host clock.
_WALL_CLOCK = frozenset({
    "time.time", "time.time_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "time.monotonic", "time.monotonic_ns",
    "time.process_time", "time.process_time_ns",
    "datetime.datetime.now", "datetime.datetime.utcnow",
    "datetime.datetime.today", "datetime.now", "datetime.utcnow",
    "datetime.today", "date.today", "datetime.date.today",
})
#: ``from time import X`` names that read the host clock.
_WALL_CLOCK_FROM_TIME = frozenset({
    "time", "time_ns", "perf_counter", "perf_counter_ns",
    "monotonic", "monotonic_ns", "process_time", "process_time_ns",
})


class WallClockRule(Rule):
    """D002: host wall time only in declared diagnostic paths.

    Modelled latencies come from ``TimingConfig`` and the ECC model; any
    other ``time.*`` read either leaks nondeterminism into results or
    tempts someone to mix host seconds with modelled milliseconds.  The
    allowlist names the modules whose *diagnostic* wall-time bookkeeping
    is deliberate and excluded from ``deterministic_dict()``.
    """

    id = "D002"
    title = "wall clock outside the diagnostic allowlist"

    #: Modules with sanctioned wall-time diagnostics: the replay
    #: drivers' shared ``wall_seconds`` bookkeeping (``ReplayCore.run``)
    #: and the GC victim policies' ``scan_seconds`` host-cost counter.
    ALLOWED = frozenset({"sim/simulator.py", "ftl/victim.py"})

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        if src.relpath in self.ALLOWED:
            return
        for node in src.nodes:
            if isinstance(node, ast.ImportFrom):
                mod = node.module or ""
                if mod == "time":
                    bad = [a.name for a in node.names
                           if a.name in _WALL_CLOCK_FROM_TIME]
                    if bad:
                        yield self._v(src, node, f"import of time.{bad[0]}")
            elif isinstance(node, ast.Attribute):
                name = dotted_name(node)
                if name in _WALL_CLOCK:
                    yield self._v(src, node, f"call chain {name!r}")

    def _v(self, src: SourceFile, node: ast.AST, what: str) -> Violation:
        return Violation(
            self.id, src.relpath, node.lineno, node.col_offset,
            f"{what}: host wall time is allowed only in "
            f"{sorted(self.ALLOWED)} — modelled latencies must come from "
            f"TimingConfig, diagnostics must stay out of deterministic results")


# --------------------------------------------------------------------------
# D003 — iteration order of sets feeding simulation state


def _is_set_construct(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _is_set_annotation(node: ast.AST) -> bool:
    if isinstance(node, ast.Subscript):
        node = node.value
    return isinstance(node, ast.Name) and node.id in (
        "set", "Set", "frozenset", "FrozenSet", "MutableSet", "AbstractSet")


class SetIterationRule(Rule):
    """D003: no order-dependent consumption of sets in simulation state.

    ``set`` iteration order depends on insertion history and hash
    salting-adjacent details; two code paths that build the same set
    differently can then diverge in victim choice, page order, anything.
    Inside the simulation-state packages, ``for x in s`` and
    ``list(s)``/``tuple(s)`` over a set must go through ``sorted(...)``
    (order-independent reductions — ``min``/``max``/``sum``/``len``/
    membership — are fine and not flagged).
    """

    id = "D003"
    title = "unordered set iteration in simulation state"

    #: Packages whose state feeds results; first path component.
    TARGET_DIRS = frozenset({"ftl", "nand", "sim", "core", "frontend"})

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        parts = src.relpath.split("/")
        if len(parts) < 2 or parts[0] not in self.TARGET_DIRS:
            return
        set_locals, set_attrs = self._collect_set_names(src.nodes)

        def is_setish(node: ast.AST) -> bool:
            if _is_set_construct(node):
                return True
            if isinstance(node, ast.Name) and node.id in set_locals:
                return True
            if isinstance(node, ast.Attribute) and node.attr in set_attrs:
                return True
            return False

        for node in src.nodes:
            if isinstance(node, (ast.For, ast.AsyncFor)) and is_setish(node.iter):
                yield self._v(src, node, "for-loop over a set")
            elif isinstance(node, ast.comprehension) and is_setish(node.iter):
                # Comprehensions carry no lineno; report via the iter node.
                yield self._v(src, node.iter, "comprehension over a set")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in ("list", "tuple")
                    and len(node.args) == 1 and not node.keywords
                    and is_setish(node.args[0])):
                yield self._v(src, node, f"{node.func.id}() over a set")

    @staticmethod
    def _collect_set_names(
            nodes: Iterable[ast.AST]) -> tuple[set[str], set[str]]:
        """Names statically known to hold sets: locals assigned a set
        construct, and ``self.X`` attributes annotated or assigned one."""
        set_locals: set[str] = set()
        set_attrs: set[str] = set()

        def note_target(target: ast.AST) -> None:
            if isinstance(target, ast.Name):
                set_locals.add(target.id)
            elif isinstance(target, ast.Attribute):
                set_attrs.add(target.attr)

        for node in nodes:
            if isinstance(node, ast.AnnAssign):
                if _is_set_annotation(node.annotation):
                    note_target(node.target)
                elif node.value is not None and _is_set_construct(node.value):
                    note_target(node.target)
            elif isinstance(node, ast.Assign) and _is_set_construct(node.value):
                for target in node.targets:
                    note_target(target)
        return set_locals, set_attrs

    def _v(self, src: SourceFile, node: ast.AST, what: str) -> Violation:
        return Violation(
            self.id, src.relpath, node.lineno, node.col_offset,
            f"{what}: set order is not part of the simulation contract — "
            f"wrap in sorted(...) before it can feed ordered state")
