"""Schema rules: S001 (result-schema drift) and S002 (Block counter writes).

S001 guards the cache-soundness contract of ``docs/CACHING.md``: the
on-disk result cache stores ``SimulationResult.to_dict()`` payloads keyed
by :data:`repro.experiments.cache.CACHE_SCHEMA_VERSION`.  Adding or
removing a result field without bumping the version silently mixes old
and new payload shapes in the same key space.  The rule extracts the
field set from the *source* (AST, no import needed), compares it against
the committed snapshot ``results/schema_snapshot.json``, and fails on any
mismatch — with a message that says which side to fix.

S002 guards the mirror contract of ``docs/PERFORMANCE.md``: a block's
python mirrors (``page_valid``/``page_programmed``/slot bitmasks and
counters) and its region's arrays (subpage state, ``state_code``) are
written together by ``nand/block.py`` only.  A direct write from
anywhere else moves one side but not the other, so victim scores and
the candidate set a victim scan reads off ``state_code`` drift from the
flash state they summarize.
"""

from __future__ import annotations

import ast
import json
from pathlib import Path
from typing import Iterator

from .core import ProjectContext, Rule, SourceFile, Violation, walk

#: Repo-relative file the snapshot describes.
SIMULATOR_RELPATH = "sim/simulator.py"
#: Repo-relative file holding the cache schema version.
CACHE_RELPATH = "experiments/cache.py"
#: Snapshot location under the repository root.
SNAPSHOT_RELPATH = "results/schema_snapshot.json"


# --------------------------------------------------------------------------
# AST extraction helpers (also used by results/regenerate.py --schema)


def extract_result_schema(simulator_py: Path) -> dict | None:
    """Field/summary-key sets of ``SimulationResult``, read via AST.

    Returns ``None`` when the file or the class is absent (linting a
    fixture tree).  Dataclass fields are the class-body ``AnnAssign``
    statements; ``to_dict()`` serialises exactly ``dataclasses.fields``,
    so this set *is* the cache payload key set.  ``summary_keys`` are the
    constant keys of the dict literal ``summary()`` returns, and
    ``nondeterministic_fields`` mirrors the class attribute that
    determinism comparisons strip.
    """
    if not simulator_py.is_file():
        return None
    tree = ast.parse(simulator_py.read_text(encoding="utf-8"),
                     filename=str(simulator_py))
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and node.name == "SimulationResult":
            return _schema_of_class(node)
    return None


def _schema_of_class(cls: ast.ClassDef) -> dict:
    fields = [stmt.target.id for stmt in cls.body
              if isinstance(stmt, ast.AnnAssign)
              and isinstance(stmt.target, ast.Name)]
    nondet: list[str] = []
    summary_keys: list[str] = []
    for stmt in cls.body:
        if (isinstance(stmt, ast.Assign) and len(stmt.targets) == 1
                and isinstance(stmt.targets[0], ast.Name)
                and stmt.targets[0].id == "NONDETERMINISTIC_FIELDS"):
            value = stmt.value
            if isinstance(value, (ast.Tuple, ast.List)):
                nondet = [e.value for e in value.elts
                          if isinstance(e, ast.Constant) and isinstance(e.value, str)]
        elif isinstance(stmt, ast.FunctionDef) and stmt.name == "summary":
            for sub in walk(stmt):
                if isinstance(sub, ast.Return) and isinstance(sub.value, ast.Dict):
                    summary_keys = [k.value for k in sub.value.keys
                                    if isinstance(k, ast.Constant)
                                    and isinstance(k.value, str)]
    return {"fields": fields, "nondeterministic_fields": nondet,
            "summary_keys": summary_keys, "class_line": cls.lineno}


def extract_cache_schema_version(cache_py: Path) -> int | None:
    """``CACHE_SCHEMA_VERSION`` constant, read via AST (no import)."""
    if not cache_py.is_file():
        return None
    tree = ast.parse(cache_py.read_text(encoding="utf-8"),
                     filename=str(cache_py))
    for node in tree.body:
        targets: list[ast.expr] = []
        value: ast.expr | None = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        for target in targets:
            if (isinstance(target, ast.Name)
                    and target.id == "CACHE_SCHEMA_VERSION"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, int)):
                return value.value
    return None


def current_schema(package_root: Path) -> dict | None:
    """The live schema of a source tree, or ``None`` if not a repro tree."""
    schema = extract_result_schema(package_root / SIMULATOR_RELPATH)
    if schema is None:
        return None
    version = extract_cache_schema_version(package_root / CACHE_RELPATH)
    if version is None:
        return None
    out = {k: v for k, v in schema.items() if k != "class_line"}
    out["cache_schema_version"] = version
    return out


def write_schema_snapshot(repo_root: "Path | str",
                          package_root: "Path | str | None" = None) -> Path:
    """Regenerate ``results/schema_snapshot.json`` from the source tree.

    The hook behind ``python results/regenerate.py --schema``: run it in
    the same commit that bumps ``CACHE_SCHEMA_VERSION`` so the S001 drift
    guard re-arms on the new schema.
    """
    repo = Path(repo_root)
    pkg = Path(package_root) if package_root is not None else repo / "src" / "repro"
    schema = current_schema(pkg)
    if schema is None:
        raise FileNotFoundError(
            f"no SimulationResult/CACHE_SCHEMA_VERSION found under {pkg}")
    path = repo / SNAPSHOT_RELPATH
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(schema, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# S001 — schema drift vs the committed snapshot


class SchemaDriftRule(Rule):
    """S001: ``SimulationResult`` may not change shape silently.

    Compares the live field set (and summary keys and the
    nondeterministic-field list) against the committed snapshot, and the
    live ``CACHE_SCHEMA_VERSION`` against the version recorded when the
    snapshot was taken.  Any mismatch fails with instructions: bump the
    version if the schema moved, regenerate the snapshot if the bump
    already happened.
    """

    id = "S001"
    title = "SimulationResult schema drift without a cache version bump"

    def check_project(self, ctx: ProjectContext) -> Iterator[Violation]:
        schema = extract_result_schema(ctx.package_root / SIMULATOR_RELPATH)
        version = extract_cache_schema_version(ctx.package_root / CACHE_RELPATH)
        if schema is None or version is None:
            # Not a repro source tree (rule fixtures): nothing to guard.
            return
        line = schema["class_line"]
        snap_path = ctx.snapshot_path
        if snap_path is None:
            return
        if not snap_path.is_file():
            yield self._v(line, f"schema snapshot {SNAPSHOT_RELPATH} is "
                                f"missing — create it with "
                                f"'python results/regenerate.py --schema'")
            return
        try:
            snap = json.loads(snap_path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            yield self._v(line, f"unreadable schema snapshot {snap_path}: {exc}")
            return

        drift = self._diff(schema, snap)
        snap_version = snap.get("cache_schema_version")
        if drift and version == snap_version:
            yield self._v(line, f"SimulationResult schema changed ({drift}) "
                                f"without a CACHE_SCHEMA_VERSION bump — bump "
                                f"it in {CACHE_RELPATH} (currently {version}) "
                                f"and regenerate the snapshot")
        elif drift:
            yield self._v(line, f"SimulationResult schema changed ({drift}) "
                                f"and CACHE_SCHEMA_VERSION moved "
                                f"{snap_version} -> {version} — regenerate "
                                f"{SNAPSHOT_RELPATH} to re-arm the drift "
                                f"guard ('python results/regenerate.py "
                                f"--schema')")
        elif version != snap_version:
            yield self._v(line, f"CACHE_SCHEMA_VERSION is {version} but the "
                                f"snapshot records {snap_version} — "
                                f"regenerate {SNAPSHOT_RELPATH}")

    @staticmethod
    def _diff(schema: dict, snap: dict) -> str:
        """Human-readable description of set differences ('' when equal)."""
        parts = []
        for key, label in (("fields", "field"),
                           ("nondeterministic_fields", "nondet field"),
                           ("summary_keys", "summary key")):
            live = set(schema.get(key) or ())
            kept = set(snap.get(key) or ())
            added, removed = sorted(live - kept), sorted(kept - live)
            if added:
                parts.append(f"{label}s added: {', '.join(added)}")
            if removed:
                parts.append(f"{label}s removed: {', '.join(removed)}")
        return "; ".join(parts)

    def _v(self, line: int, message: str) -> Violation:
        return Violation(self.id, SIMULATOR_RELPATH, line, 0, message)


# --------------------------------------------------------------------------
# S002 — Block counter / subpage-state writes outside nand/block.py


#: Block attributes the nand kernel keeps in step with the region arrays
#: (see ``Block.__slots__``).  Writing any of these elsewhere moves one
#: side of a mirror without the other.
_WATCHED_ATTRS = frozenset({
    "page_valid", "page_programmed", "pages_with_valid",
    "n_valid", "n_invalid", "n_programmed", "content_epoch",
    "programmed", "valid", "page_updated", "disturb_in", "disturb_nb",
    # Structure-of-arrays additions: the slot→lsn binding column and the
    # per-page python-int bitmask mirrors of programmed/valid.
    "slot_lsn", "prog_mask", "valid_mask",
})
#: In-place mutator methods on lists/arrays/sets.
_MUTATORS = frozenset({
    "append", "extend", "insert", "pop", "remove", "clear", "sort",
    "add", "discard", "update", "fill", "setdefault",
})


def _watched_attribute(node: ast.AST) -> str | None:
    """The watched attribute a write target touches, if any.

    Matches ``x.page_valid``, ``x.page_valid[i]`` and nested subscripts
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
            f"with it; go through Block.program/invalidate/erase")
