"""Process-pool payload safety (rule P003).

``run_cells`` and the fleet fan out over a ``ProcessPoolExecutor``;
whatever crosses into a worker must pickle:

======== ============================================================
``P003`` an unpicklable payload (lambda, closure, generator
         expression, open handle) flows into
         ``ProcessPoolExecutor.submit``/``map``
======== ============================================================

Checkpoints need no rule: no class in ``src/`` customises its pickle
protocol, and ``tests/test_checkpoint.py`` resumes every replay driver
(open loop with each scheme, closed loop, front end; fault-free and
faulty) bit for bit and fails on any stored array that shares memory
with a region column without being that column.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Rule, SourceFile, Violation, walk

#: Pool constructors whose payloads must pickle.
_POOL_CLASSES = frozenset({"ProcessPoolExecutor"})


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
