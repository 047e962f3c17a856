"""Schema rule S002: Block counter writes outside the nand state kernel.

S002 guards the mirror contract of ``docs/PERFORMANCE.md``: a block's
python state (slot bitmasks and occupancy counters) and its region's
arrays (subpage state, ``state_code``) are written together by
``nand/block.py`` only.  A direct write from anywhere else moves one
side but not the other, so victim scores and the candidate set a victim
scan reads off ``state_code`` drift from the flash state they
summarize.

The result-schema contract of ``docs/CACHING.md`` is not a lint rule:
``tests/test_result_schema.py`` compares the live record
(:func:`repro.experiments.cache.result_schema`) with the committed
``results/schema_snapshot.json``.
"""

from __future__ import annotations

import ast
from typing import Iterator

from .core import Rule, SourceFile, Violation


#: Block attributes the nand kernel keeps in step with each other and
#: with the region arrays (see ``Block.__slots__`` and its view
#: properties).  Writing any of these elsewhere moves one side of a
#: mirror without the other.
_WATCHED_ATTRS = frozenset({
    "pages_with_valid", "n_valid", "n_invalid", "n_programmed",
    "content_epoch", "valid", "page_updated", "disturb_in", "disturb_nb",
    "slot_lsn", "prog_mask", "valid_mask",
})
#: In-place mutator methods on lists/arrays/sets.
_MUTATORS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "sort",
    "add", "discard", "update", "fill", "setdefault",
})


def _watched_attribute(node: ast.AST) -> str | None:
    """The watched attribute a write target touches, if any.

    Matches ``x.valid_mask``, ``x.valid_mask[i]`` and nested subscripts
    (``x.valid[p][s]``).
    """
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr in _WATCHED_ATTRS:
        return node.attr
    return None


class BlockCounterWriteRule(Rule):
    """S002: Block/region occupancy state is written only by the flash
    state kernel (``nand/block.py`` mutates, ``nand/state.py`` allocates
    the backing region arrays)."""

    id = "S002"
    title = "Block counter/subpage-state write outside the nand state kernel"

    #: The modules that own the state and keep its mirrors in step.
    ALLOWED = frozenset({"nand/block.py", "nand/state.py"})

    def check_file(self, src: SourceFile) -> Iterator[Violation]:
        if src.relpath in self.ALLOWED:
            return
        for node in src.nodes:
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    for elt in self._flatten(target):
                        attr = _watched_attribute(elt)
                        if attr is not None:
                            yield self._v(src, node, attr, "assignment to")
            elif isinstance(node, ast.AugAssign):
                attr = _watched_attribute(node.target)
                if attr is not None:
                    yield self._v(src, node, attr, "augmented assignment to")
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                attr = _watched_attribute(node.target)
                if attr is not None:
                    yield self._v(src, node, attr, "assignment to")
            elif (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in _MUTATORS):
                attr = _watched_attribute(node.func.value)
                if attr is not None:
                    yield self._v(src, node, attr,
                                  f".{node.func.attr}() call on")
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    attr = _watched_attribute(target)
                    if attr is not None:
                        yield self._v(src, node, attr, "del of")

    @staticmethod
    def _flatten(target: ast.AST) -> Iterator[ast.AST]:
        if isinstance(target, (ast.Tuple, ast.List)):
            for elt in target.elts:
                yield from BlockCounterWriteRule._flatten(elt)
        else:
            yield target

    def _v(self, src: SourceFile, node: ast.AST, attr: str,
           how: str) -> Violation:
        return Violation(
            self.id, src.relpath, node.lineno, node.col_offset,
            f"{how} mirrored Block state {attr!r} outside the nand state "
            f"kernel — its partner in the region arrays would not move "
            f"with it; go through Block.program_disturb/invalidate/erase")
