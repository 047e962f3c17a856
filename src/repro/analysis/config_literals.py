"""C001 — magic size/latency literals in modelled code.

Table 2 of the paper is the single source of truth for device timings
and geometry; ``repro.config`` carries it and ``repro.units`` provides
the byte-size vocabulary.  A raw ``4096`` or ``0.3`` inside ``ftl/``,
``sim/`` or ``error/`` is a config value that escaped the config — it
silently stops tracking Table-2 overrides and scaled configurations.

The rule is deliberately value-targeted rather than "all numbers are
magic": it flags the power-of-two byte sizes and the exact Table-2
latencies, the two literal families that have a designated home
(``repro.units`` / ``TimingConfig``).  Declared defaults — dataclass
field defaults and module-level ``UPPER_CASE`` constants — are exempt;
they *are* configuration.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Rule, SourceFile, Violation

#: Byte sizes that must be spelled via ``repro.units`` (``4 * KIB``,
#: ``kib(16)``) or taken from ``GeometryConfig``.
SIZE_LITERALS = frozenset({
    512, 1024, 2048, 4096, 8192, 16384, 32768, 65536, 131072,
})
#: Exact Table-2 operation latencies (ms) owned by ``TimingConfig``.
TIMING_LITERALS = frozenset({
    0.025, 0.05, 0.3, 0.9, 10.0, 0.0005, 0.0968, 0.04,
})


class ConfigLiteralRule(Rule):
    """C001: sizes/latencies come from ``repro.config`` / ``repro.units``."""

    id = "C001"
    title = "magic size/latency literal outside repro.config"

    #: Packages that model the device; first path component.
    TARGET_DIRS = frozenset({"ftl", "sim", "error"})

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        parts = src.relpath.split("/")
        if len(parts) < 2 or parts[0] not in self.TARGET_DIRS:
            return
        parents: dict[ast.AST, ast.AST] | None = None
        for node in src.nodes:
            if not isinstance(node, ast.Constant):
                continue
            value = node.value
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                continue
            if isinstance(value, int):
                if value not in SIZE_LITERALS:
                    continue
                home = "repro.units (e.g. n * KIB) or GeometryConfig"
            else:
                if value not in TIMING_LITERALS:
                    continue
                home = "TimingConfig"
            if parents is None:  # built only once a candidate turns up
                parents = {child: parent for parent in src.nodes
                           for child in ast.iter_child_nodes(parent)}
            if self._declared_default(node, parents):
                continue
            yield Violation(
                self.id, src.relpath, node.lineno, node.col_offset,
                f"magic literal {value!r}: take it from {home} so Table-2 "
                f"overrides and scaled configs stay in effect")

    @staticmethod
    def _declared_default(node: ast.AST,
                          parents: dict[ast.AST, ast.AST]) -> bool:
        """True when the literal is a declared default, not buried logic:
        a dataclass-style ``AnnAssign`` default, a module/class-level
        ``UPPER_CASE = ...`` constant, or a keyword/positional default in
        a function signature."""
        cur: ast.AST | None = node
        while cur is not None:
            parent = parents.get(cur)
            if isinstance(parent, ast.AnnAssign):
                return True
            if isinstance(parent, ast.arguments):
                return True
            if isinstance(parent, ast.Assign):
                names = [t.id for t in parent.targets
                         if isinstance(t, ast.Name)]
                if names and all(name.isupper() for name in names):
                    return True
            if isinstance(parent, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Module)):
                return False
            cur = parent
        return False
    # repro-lint note: docstrings are string constants and never match.
