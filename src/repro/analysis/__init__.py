"""``repro-ssd lint`` — AST-based determinism & soundness analyzer.

Machine-checks the repository's simulation contracts (see
``docs/STATIC_ANALYSIS.md``):

========  ==========================================================
``D001``  randomness outside ``repro/rng.py`` (make_rng/spawn only)
``D002``  host wall clock outside the diagnostic allowlist
``D003``  unordered set iteration feeding simulation state
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
``K002``  ambient input (env/files/platform) read inside a cached cell
``P003``  unpicklable payload passed to ``ProcessPoolExecutor``
========  ==========================================================

Contracts a test enforces are not rules: ``tests/test_result_schema.py``
checks the live ``SimulationResult`` against the committed snapshot,
``tests/test_record.py`` round-trips every cache-key ``Record``, and
``tests/test_checkpoint.py`` resumes every replay driver bit for bit
(``docs/STATIC_ANALYSIS.md``, "Retired rules").

The U-, M- and K-families are interprocedural: one project-wide
index (:mod:`repro.analysis.callgraph`) — call graph, base-class
chains, annotation tables and local-variable typing — feeds a
unit-inference engine (:mod:`repro.analysis.units_flow`) that
propagates dimension facts from the ``repro.units`` ``Annotated``
vocabulary through assignments, arithmetic, returns, and call edges;
an effect/exception pass (:mod:`repro.analysis.effects`) that
propagates which state each function writes and which paths can
raise; and a cache-key soundness pass
(:mod:`repro.analysis.repro_soundness`) that follows the cached
cells' call trees.  The N-family (:mod:`repro.analysis.numpy_rules`)
is per-file but gated to the modules whose outputs the golden pins
diff byte-for-byte, and P003 (:mod:`repro.analysis.pickle_rules`)
checks each process-pool call site.

Pure standard library (``ast`` + ``json``): importable and runnable even
where numpy is not (``tests/test_lean_startup.py`` runs ``python -m repro
lint`` with numpy blocked), and adding a rule cannot perturb simulation
results.
"""

from __future__ import annotations

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
from .pickle_rules import ExecutorPayloadRule
from .repro_soundness import AmbientInputRule
from .schema import BlockCounterWriteRule
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
    BlockCounterWriteRule(),
    ConfigLiteralRule(),
    MixedUnitArithmeticRule(),
    AddressSpaceConfusionRule(),
    LossyBoundaryCrossingRule(),
    TornStateWriteRule(),
    MirrorColumnPairRule(),
    DtypeDisciplineRule(),
    ReductionOrderRule(),
    AmbientInputRule(),
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
    "AmbientInputRule",
    "ExecutorPayloadRule",
    "LintResult",
    "ProjectContext",
    "Rule",
    "SourceFile",
    "Violation",
    "run_lint",
]
