"""The seeded fault plan: every stochastic fault decision lives here.

A :class:`FaultPlan` owns one dedicated :func:`repro.rng.faults_rng`
stream per mechanism (``read``, ``program``, ``erase``, ``power``), so

* fault sampling never perturbs the trace or error-model streams derived
  from the same root seed, and
* the mechanisms stay mutually independent: raising the program-failure
  rate does not shift which reads fail.

Each injector consumes **exactly one uniform draw per opportunity** (the
read ladder draws once per retry rung).  Two consequences the property
tests rely on: with a mechanism's rate at zero its stream is never
touched, so a disabled plan is bit-identical to no plan at all; and for
the single-draw mechanisms the same seed compares the same uniform
sequence against different thresholds, so fault counts are monotone in
the rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..rng import faults_rng
from .badblocks import BadBlockTable
from .config import FaultConfig
from ..units import Ms

if TYPE_CHECKING:
    from ..ftl.base import BaseFTL
    from ..nand.block import Block
    from ..nand.flash import FlashArray
    from ..sim.ops import OpRecord
    from ..sim.timing import TimingModel


@dataclass
class FaultStats:
    """Degradation counters (become ``SimulationResult`` fields)."""

    read_faults: int = 0           #: initial reads that failed to decode
    read_retries: int = 0          #: retry-ladder rungs climbed
    uncorrectable_reads: int = 0   #: reads the full ladder could not save
    fault_relocations: int = 0     #: pages relocated by fault handling
    program_failures: int = 0      #: failed program pulses
    erase_failures: int = 0        #: failed erase pulses
    retired_blocks: int = 0        #: blocks grown bad (capacity loss)
    power_loss_events: int = 0     #: power losses injected
    torn_subpages: int = 0         #: subpages torn by power loss
    recovered_subpages: int = 0    #: torn subpages the mount scan repaired
    recovery_ms: Ms = 0.0          #: total mount-time recovery cost


class FaultPlan:
    """Deterministic fault sampling plus the device's response state."""

    def __init__(self, config: FaultConfig, seed: int | None = None):
        config.validate()
        self.config = config
        self.seed = seed
        self.stats = FaultStats()
        #: Extra ops produced inside fault handling (wasted program
        #: pulses, emergency-GC traffic during remapping); the FTL drains
        #: them into its request's op list.
        self.pending: list[OpRecord] = []
        #: Bound to the device by :meth:`bind` / :func:`attach_faults`.
        self.badblocks: BadBlockTable | None = None
        self._read_rng = faults_rng(seed, "read")
        self._program_rng = faults_rng(seed, "program")
        self._erase_rng = faults_rng(seed, "erase")
        self._power_rng = faults_rng(seed, "power")

    def bind(self, flash: FlashArray) -> None:
        """Attach the plan to a device (sizes the bad-block budget)."""
        self.badblocks = BadBlockTable(flash, self.config.max_retire_fraction)

    # -- read failures ------------------------------------------------------

    def read_outcome(self, p_uncorrectable: float) -> tuple[int, bool]:
        """Sample one host read: ``(retries, reclaim)``.

        ``retries`` is how many ladder rungs the read needed (0 = clean
        first read); ``reclaim`` asks the FTL to relocate the page —
        either the ladder barely saved it (``relocate_after_retries``) or
        exhausted itself (the read is uncorrectable, data re-created from
        the still-valid flash copy the simulator models losslessly).
        """
        cfg = self.config
        scale = cfg.read_fault_scale
        if scale <= 0.0:
            return 0, False
        p = p_uncorrectable * scale
        if p > 1.0:
            p = 1.0
        if p <= 0.0 or self._read_rng.random() >= p:
            return 0, False
        stats = self.stats
        stats.read_faults += 1
        retries = 0
        while retries < cfg.read_retries_max:
            retries += 1
            stats.read_retries += 1
            p *= cfg.retry_success_scale
            if self._read_rng.random() >= p:
                return retries, retries >= cfg.relocate_after_retries
        stats.uncorrectable_reads += 1
        return retries, True

    # -- program failures ---------------------------------------------------

    def program_fails(self) -> bool:
        """Sample one program pulse (one uniform draw when enabled)."""
        rate = self.config.program_fault_rate
        if rate <= 0.0:
            return False
        return bool(self._program_rng.random() < rate)

    def note_program_failure(self, block_id: int) -> None:
        """Count a failed pulse and condemn its block."""
        self.stats.program_failures += 1
        badblocks = self.badblocks
        assert badblocks is not None
        badblocks.condemn(block_id)

    # -- erase failures / retirement ---------------------------------------

    def should_retire_after_erase(self, block: Block) -> bool:
        """Decide, post-erase, whether the block retires.

        Retirement triggers: a sampled erase failure, or a program
        failure that condemned the block earlier.  Either way the
        per-region budget gates the actual retirement — over budget the
        block is pardoned back into service (counters still record the
        failure).
        """
        badblocks = self.badblocks
        assert badblocks is not None
        block_id = block.block_id
        failed = False
        rate = self.config.erase_fault_rate
        if rate > 0.0:
            failed = bool(self._erase_rng.random() < rate)
            if failed:
                self.stats.erase_failures += 1
        if not failed and not badblocks.is_condemned(block_id):
            return False
        if not badblocks.can_retire(block.is_slc):
            badblocks.pardon(block_id)
            return False
        badblocks.note_retired(block_id, block.is_slc)
        self.stats.retired_blocks += 1
        return True

    # -- power loss ---------------------------------------------------------

    def next_power_loss(self, now: Ms) -> Ms:
        """Simulated time of the next power-loss event (inf if disabled)."""
        rate = self.config.power_loss_per_ms
        if rate <= 0.0:
            return math.inf
        return now + float(self._power_rng.exponential(1.0 / rate))

    def power_loss(self, ftl: BaseFTL, now: Ms, timing: TimingModel) -> Ms:
        """Inject one power loss; returns the mount-recovery time (ms)."""
        from .recovery import run_power_loss
        return run_power_loss(ftl, self, now, timing)

    # -- plumbing -----------------------------------------------------------

    def drain_ops(self) -> list[OpRecord]:
        """Take (and clear) the ops fault handling accumulated."""
        if not self.pending:
            return []
        ops = self.pending
        self.pending = []
        return ops


def attach_faults(ftl: BaseFTL, config: FaultConfig | None,
                  seed: int | None = None) -> FaultPlan | None:
    """Wire a fault plan into an FTL and its flash array.

    Returns the plan, or ``None`` when ``config`` is missing or disabled
    — in that case nothing is attached and the simulation stays
    bit-identical to one without the subsystem.
    """
    if config is None:
        return None
    config.validate()
    if not config.enabled:
        return None
    plan = FaultPlan(config, seed)
    plan.bind(ftl.flash)
    ftl.faults = plan
    ftl.flash.faults = plan
    return plan
