"""Numpy bit-identity discipline (rules N001–N002).

The batched pricing kernels (``rber_many``/``decode_ms_many``, the
flash-state columns they read) are only *byte-identical* to the scalar
reference paths while two disciplines hold:

* **dtype discipline** — every array is constructed with an explicit
  dtype and every float accumulator is float64.  A dtype-less
  ``np.array([...])`` promotes by inspecting its contents, so a single
  int-looking row silently flips a float column to int64; float32
  intermediates round differently from the scalar float64 path.
* **reduction-order discipline** — ``np.sum`` over an unsorted
  fancy-indexed gather and python ``sum()`` over a float array
  accumulate in an order (and with pairwise blocking) that the mirrored
  scalar loops do not; the kernel contract is ``ufunc.reduceat`` over
  sorted spans or an explicit mirrored loop.

Both rules only fire inside the byte-identity-gated modules
(:data:`GATED_FILES`): the golden pins diff those files' outputs byte
for byte, so a violation there is a real identity hazard, while e.g.
trace synthesis is free to use idiomatic numpy.  Generator-expression
``sum(...)`` stays allowed — it is a python-object fold over an
explicit, deterministic iteration order, which is exactly the shape the
consistency checkers use.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Rule, SourceFile, Violation
from .determinism import numpy_bindings

#: Modules whose outputs the golden stack pins byte-for-byte
#: (``ftl/hotcold.py``: Equation 2 decides the ISR policy's victims).
GATED_FILES = frozenset({
    "nand/state.py",
    "nand/flash.py",
    "error/rber.py",
    "error/ecc.py",
    "ftl/hotcold.py",
})

#: Constructors whose result dtype depends on the input unless pinned.
#: (``*_like`` and ``concatenate`` inherit their operand's dtype and are
#: exempt — the operand was already checked at its construction site.)
CONSTRUCTORS = frozenset({
    "array", "asarray", "ascontiguousarray", "zeros", "ones", "empty",
    "full", "fromiter", "arange", "linspace", "geomspace", "logspace",
})

#: Float dtypes narrower (or platform-wobblier) than the contract.
NARROW_FLOATS = frozenset({
    "float16", "float32", "half", "single", "longdouble", "float128",
})


def _np_attr(node: ast.expr, aliases: frozenset[str]) -> str | None:
    """``np.<attr>`` attribute name when ``node`` is one, else None."""
    if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in aliases):
        return node.attr
    return None


def _is_dtype_expr(node: ast.expr, aliases: frozenset[str]) -> bool:
    """Whether ``node`` plausibly denotes a dtype (``np.int64``,
    ``bool``, ``"float64"``)."""
    attr = _np_attr(node, aliases)
    if attr is not None:
        return (attr.startswith(("float", "int", "uint", "bool", "complex"))
                or attr in ("intp", "half", "single", "double",
                            "longdouble", "str_", "bytes_"))
    if isinstance(node, ast.Name):
        return node.id in ("bool", "int", "float", "complex", "str")
    if isinstance(node, ast.Constant):
        return isinstance(node.value, str)
    return False


def _has_explicit_dtype(call: ast.Call, aliases: frozenset[str]) -> bool:
    if any(kw.arg == "dtype" for kw in call.keywords):
        return True
    return any(_is_dtype_expr(arg, aliases) for arg in call.args)


def _narrow_float_name(node: ast.expr,
                       aliases: frozenset[str]) -> str | None:
    """The narrow float dtype ``node`` names, if it names one."""
    attr = _np_attr(node, aliases)
    if attr in NARROW_FLOATS:
        return f"np.{attr}"
    if isinstance(node, ast.Constant) and node.value in NARROW_FLOATS:
        return repr(node.value)
    return None


def _is_fancy_index(index: ast.expr) -> bool:
    """Whether a subscript index is a gather (array/list of positions)
    rather than a scalar or slice."""
    if isinstance(index, (ast.Constant, ast.Slice)):
        return False
    if isinstance(index, ast.Tuple):
        return any(_is_fancy_index(elt) for elt in index.elts)
    if isinstance(index, ast.UnaryOp):
        return _is_fancy_index(index.operand)
    # Name / Attribute / Call / List / BinOp index: an index array (or a
    # mask) as far as a static pass can tell.  Comparisons like
    # ``arr[arr > 0]`` are boolean masks — those gather in ascending
    # position order and stay deterministic, so they are exempt.
    if isinstance(index, ast.Compare):
        return False
    return True


class _NumpyRule(Rule):
    """Base: iterate gated files only, with the module's numpy aliases."""

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        if src.relpath not in GATED_FILES:
            return
        aliases, _ = numpy_bindings(src.nodes)
        yield from self.check_gated(src, aliases)

    def check_gated(self, src: SourceFile,
                    aliases: frozenset[str]) -> Iterator[Violation]:
        raise NotImplementedError


class DtypeDisciplineRule(_NumpyRule):
    """N001: explicit, contract-width dtypes in byte-identity modules."""

    id = "N001"
    title = "dtype-less or narrow-float numpy construction in a byte-identity-gated module"

    def check_gated(self, src: SourceFile,
                    aliases: frozenset[str]) -> Iterator[Violation]:
        for node in src.nodes:
            if isinstance(node, ast.Call):
                ctor = (_np_attr(node.func, aliases)
                        if isinstance(node.func, ast.Attribute) else None)
                if (ctor in CONSTRUCTORS
                        and not _has_explicit_dtype(node, aliases)):
                    yield Violation(
                        self.id, src.relpath, node.lineno, node.col_offset,
                        f"dtype-less np.{ctor}() in a byte-identity-gated "
                        f"module — implicit promotion can flip the array "
                        f"dtype on content changes; pass dtype=np.float64 "
                        f"(or the intended integer dtype) explicitly")
            if isinstance(node, ast.Attribute):
                narrow = _narrow_float_name(node, aliases)
                if narrow is not None:
                    yield Violation(
                        self.id, src.relpath, node.lineno, node.col_offset,
                        f"narrow float dtype {narrow} in a "
                        f"byte-identity-gated module — pricing kernels "
                        f"are float64 end-to-end; float32 intermediates "
                        f"round differently from the mirrored scalar path")
            if isinstance(node, ast.Call):
                # dtype="float32" string form (the np.float32 attribute
                # form is reported when the walk reaches the attribute).
                for kw in node.keywords:
                    if kw.arg != "dtype" or isinstance(kw.value,
                                                       ast.Attribute):
                        continue
                    name = _narrow_float_name(kw.value, aliases)
                    if name is not None:
                        yield Violation(
                            self.id, src.relpath,
                            kw.value.lineno, kw.value.col_offset,
                            f"narrow float dtype {name} in a "
                            f"byte-identity-gated module — pricing "
                            f"kernels are float64 end-to-end")


class ReductionOrderRule(_NumpyRule):
    """N002: no order-dependent reductions in byte-identity modules."""

    id = "N002"
    title = "order-dependent reduction in a byte-identity-gated module"

    def check_gated(self, src: SourceFile,
                    aliases: frozenset[str]) -> Iterator[Violation]:
        for node in src.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # arr[idx].sum() — gather then reduce.
            if (isinstance(func, ast.Attribute) and func.attr == "sum"
                    and isinstance(func.value, ast.Subscript)
                    and _is_fancy_index(func.value.slice)):
                yield Violation(
                    self.id, src.relpath, node.lineno, node.col_offset,
                    "sum() over a fancy-indexed gather in a "
                    "byte-identity-gated module — gather order is the "
                    "index array's order, not storage order; use "
                    "ufunc.reduceat over sorted spans or the mirrored "
                    "scalar loop")
            # np.sum(arr[idx]) — same shape through the module function.
            elif (_np_attr(func, aliases) == "sum" and node.args
                    and isinstance(node.args[0], ast.Subscript)
                    and _is_fancy_index(node.args[0].slice)):
                yield Violation(
                    self.id, src.relpath, node.lineno, node.col_offset,
                    "np.sum() over a fancy-indexed gather in a "
                    "byte-identity-gated module — use ufunc.reduceat "
                    "over sorted spans or the mirrored scalar loop")
            # Builtin sum() folding an array object; the explicit
            # generator/comprehension fold stays allowed.
            elif (isinstance(func, ast.Name) and func.id == "sum"
                    and node.args
                    and not isinstance(node.args[0],
                                       (ast.GeneratorExp, ast.ListComp,
                                        ast.SetComp))):
                yield Violation(
                    self.id, src.relpath, node.lineno, node.col_offset,
                    "builtin sum() over an array object in a "
                    "byte-identity-gated module — element type and fold "
                    "order are implicit; use an explicit generator "
                    "expression or the kernel's reduceat/mirror pattern")
