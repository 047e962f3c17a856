"""``repro-ssd lint`` — AST-based determinism & schema-drift analyzer.

Machine-checks the repository's simulation contracts (see
``docs/STATIC_ANALYSIS.md``):

========  ==========================================================
``D001``  randomness outside ``repro/rng.py`` (make_rng/spawn only)
``D002``  host wall clock outside the diagnostic allowlist
``D003``  unordered set iteration feeding simulation state
``S001``  ``SimulationResult`` schema drift without a
          ``CACHE_SCHEMA_VERSION`` bump (vs the committed snapshot)
``S002``  Block counter / subpage-state writes outside ``nand/block.py``
``C001``  magic size/latency literals outside ``repro.config``/``units``
``U001``  mixed-unit arithmetic (ms vs bytes vs counts)
``U002``  address-space confusion (lsn/lpn/ppn interchange)
``U003``  unconverted or double-converted unit boundary crossings
``M001``  state write reachable before a raise-capable validation
          (torn state on the exception path)
``M002``  ``Block`` scalar mirror / ``RegionState`` column written
          without its lock-step partner
``N001``  dtype-less or narrow-float numpy construction in a
          byte-identity-gated module
``N002``  order-dependent reduction in a byte-identity-gated module
``K001``  config field read inside a cached cell but missing from the
          canonical cache key
``K002``  ambient input (env/files/platform) read inside a cached cell
``K003``  canonical-key emitter omits a dataclass field
``P001``  replay-driver loop-carry state dropped by the pickle protocol
``P002``  RegionState view pickled without a ``__setstate__`` rebind
``P003``  unpicklable payload passed to ``ProcessPoolExecutor``
========  ==========================================================

The U- and M-families are interprocedural: a project-wide call graph
(:mod:`repro.analysis.callgraph`) feeds a unit-inference engine
(:mod:`repro.analysis.units_flow`) that propagates dimension facts from
the ``repro.units`` ``Annotated`` vocabulary through assignments,
arithmetic, returns, and call edges, and an effect/exception pass
(:mod:`repro.analysis.effects`) that propagates which state each
function writes and which paths can raise.  The N-family
(:mod:`repro.analysis.numpy_rules`) is per-file but gated to the
modules whose outputs the golden pins diff byte-for-byte.

Pure standard library (``ast`` + ``json``): importable and runnable even
where numpy is not (``tests/test_lean_startup.py`` runs ``python -m repro
lint`` with numpy blocked), and adding a rule cannot perturb simulation
results.
"""

from __future__ import annotations

from .baseline import (
    BASELINE_NAME,
    BaselineMatch,
    apply_baseline,
    load_baseline,
    write_baseline,
)
from .config_literals import ConfigLiteralRule
from .core import (
    LintResult,
    ProjectContext,
    Rule,
    SourceFile,
    Violation,
    run_lint,
)
from .determinism import RandomnessRule, SetIterationRule, WallClockRule
from .effects import MirrorColumnPairRule, TornStateWriteRule
from .numpy_rules import DtypeDisciplineRule, ReductionOrderRule
from .pickle_rules import (
    ExecutorPayloadRule,
    LoopCarryPickleRule,
    ViewRebindRule,
)
from .repro_soundness import (
    AmbientInputRule,
    CacheKeyTaintRule,
    CanonicalKeyCompletenessRule,
)
from .schema import (
    BlockCounterWriteRule,
    SchemaDriftRule,
    current_schema,
    extract_cache_schema_version,
    extract_result_schema,
    write_schema_snapshot,
)
from .units_flow import (
    AddressSpaceConfusionRule,
    LossyBoundaryCrossingRule,
    MixedUnitArithmeticRule,
)

#: The rule catalogue, in report order.
ALL_RULES: tuple[Rule, ...] = (
    RandomnessRule(),
    WallClockRule(),
    SetIterationRule(),
    SchemaDriftRule(),
    BlockCounterWriteRule(),
    ConfigLiteralRule(),
    MixedUnitArithmeticRule(),
    AddressSpaceConfusionRule(),
    LossyBoundaryCrossingRule(),
    TornStateWriteRule(),
    MirrorColumnPairRule(),
    DtypeDisciplineRule(),
    ReductionOrderRule(),
    CacheKeyTaintRule(),
    AmbientInputRule(),
    CanonicalKeyCompletenessRule(),
    LoopCarryPickleRule(),
    ViewRebindRule(),
    ExecutorPayloadRule(),
)

#: ``{rule_id: rule}`` lookup.
RULES_BY_ID: dict[str, Rule] = {rule.id: rule for rule in ALL_RULES}

__all__ = [
    "ALL_RULES",
    "RULES_BY_ID",
    "AddressSpaceConfusionRule",
    "LossyBoundaryCrossingRule",
    "MixedUnitArithmeticRule",
    "TornStateWriteRule",
    "MirrorColumnPairRule",
    "DtypeDisciplineRule",
    "ReductionOrderRule",
    "CacheKeyTaintRule",
    "AmbientInputRule",
    "CanonicalKeyCompletenessRule",
    "LoopCarryPickleRule",
    "ViewRebindRule",
    "ExecutorPayloadRule",
    "BASELINE_NAME",
    "BaselineMatch",
    "LintResult",
    "ProjectContext",
    "Rule",
    "SourceFile",
    "Violation",
    "apply_baseline",
    "current_schema",
    "extract_cache_schema_version",
    "extract_result_schema",
    "load_baseline",
    "run_lint",
    "write_baseline",
    "write_schema_snapshot",
]
