"""Garbage-collection controller for one region.

Policy-free mechanics shared by every scheme: trigger on the free-block
threshold (Table 2: 5%), ask the victim policy for a block, drain its valid
subpages through the scheme's relocation callback, erase, release, and run
the static wear-levelling check.  The relocation callback decides *where*
data goes (same level, lower level, eviction to the high-density region) —
that is where Baseline/MGA/IPU differ.

Draining is **incremental** (partial GC): each trigger relocates at most
``gc_pages_per_trigger`` pages of the current victim, so a collection
blocks a chip for a few page moves at a time and host traffic interleaves
with the drain, as on real devices.  A started victim is always drained to
completion (over subsequent triggers) before a new victim is selected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..config import CacheConfig
from ..error.ecc import EccModel
from ..nand.block import Block, BlockState
from ..nand.flash import FlashArray
from ..nand.wear import WearTracker
from ..sim.ops import Cause, OpKind, OpRecord
from .allocator import RegionAllocator
from ..units import Ms
from .victim import VictimPolicy

#: Relocation callback: (victim, page, slots, lsns, now, cause) -> ops.
RelocateFn = Callable[[Block, int, list[int], list[int], float, Cause], list[OpRecord]]
#: Optional pre-erase hook: flush any relocation buffering before the victim dies.
FinishFn = Callable[[float, Cause], list[OpRecord]]


@dataclass
class GcStats:
    """Per-region GC accounting (drives Figures 9, 10 and 12)."""

    collections: int = 0
    moved_subpages: int = 0
    stalled_passes: int = 0
    #: Sum over victims of programmed/total subpages (Figure 9 numerator).
    utilization_sum: float = 0.0
    #: Victims collected (Figure 9 denominator).
    utilization_blocks: int = 0
    #: Victims per block-level label (diagnostics).
    victims_by_level: dict[int, int] = field(default_factory=dict)

    @property
    def page_utilization(self) -> float:
        """Mean used-subpage ratio of collected blocks (Figure 9)."""
        if self.utilization_blocks == 0:
            return 0.0
        return self.utilization_sum / self.utilization_blocks


class GarbageCollector:
    """Threshold-triggered incremental GC for one region."""

    def __init__(
        self,
        flash: FlashArray,
        allocator: RegionAllocator,
        policy: VictimPolicy,
        relocate: RelocateFn,
        ecc: EccModel,
        cache: CacheConfig,
        wear: WearTracker | None = None,
        finish: FinishFn | None = None,
    ):
        self.flash = flash
        self.allocator = allocator
        self.policy = policy
        self.relocate = relocate
        self.ecc = ecc
        self.cache = cache
        self.wear = wear
        self.finish = finish
        self.stats = GcStats()
        self._collecting = False
        #: Victim currently being drained, and the next page to examine.
        self._victim: Block | None = None
        self._drain_page = 0
        # Both thresholds depend only on the (fixed) region size and
        # config percentages — precompute once, the trigger check runs on
        # every host op.  The floor sits above the allocator's host
        # reserve, or the pool would park at the reserve with the trigger
        # never firing.
        from .allocator import GC_RESERVE_BLOCKS
        total = allocator.total_blocks
        self._threshold = max(GC_RESERVE_BLOCKS + 2,
                              math.ceil(total * cache.gc_threshold))
        self._restore = max(self._threshold + 1,
                            math.ceil(total * cache.gc_restore))

    # -- triggers -----------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True while a victim is partially drained."""
        return self._victim is not None

    def maybe_collect(self, now: Ms) -> list[OpRecord]:
        """One incremental GC step: continue or start a drain if needed."""
        # Checked on every host request for both regions — the usual
        # answer is "nothing to do", so take it without going through the
        # ``draining`` call frame.
        if (self._victim is None
                and self.allocator.free_blocks >= self._threshold):
            return []
        if self._collecting:
            return []
        self._collecting = True
        try:
            ops: list[OpRecord] = []
            started = 0
            budget = self.cache.gc_pages_per_trigger
            while budget > 0:
                if self._victim is None:
                    if (self.allocator.free_blocks >= self._restore
                            or started >= self.cache.gc_max_blocks_per_trigger):
                        break
                    victim = self._select(now)
                    if victim is None:
                        break
                    self._begin(victim)
                    started += 1
                budget -= self._drain_step(now, budget, ops)
            if self.wear is not None and not self.draining and self.wear.should_level():
                ops.extend(self._level_wear(now))
            return ops
        finally:
            self._collecting = False

    # -- mechanics ----------------------------------------------------------------

    def _select(self, now: Ms) -> Block | None:
        return self.policy.select(self.allocator.victim_candidates(), now)

    def _begin(self, victim: Block) -> None:
        level = victim.level if victim.level is not None else 0
        self.stats.utilization_sum += victim.n_programmed / victim.total_subpages
        self.stats.utilization_blocks += 1
        self.stats.victims_by_level[level] = (
            self.stats.victims_by_level.get(level, 0) + 1)
        victim.mark_victim()
        self._victim = victim
        self._drain_page = 0

    def _drain_step(self, now: Ms, budget: int, ops: list[OpRecord]) -> int:
        """Relocate up to ``budget`` pages of the current victim.

        Returns the number of pages that actually cost a move; empty pages
        are skipped for free.  Finishes (erases, releases) the victim when
        the last page is done.
        """
        victim = self._victim
        assert victim is not None
        # Two-phase drain: gather this trigger's pages, price every read in
        # one batched kernel, then replay the READ/relocate sequence in the
        # original page order.  Byte-identical to the sequential loop: GC
        # reads draw no fault samples, and relocations program *other*
        # blocks and only invalidate already-read victim pages, so no read
        # of the span sees a disturb count the sequence would not.
        spans: list[tuple[int, list[int], list[int]]] = []
        moved = 0
        while self._drain_page < victim.next_page and moved < budget:
            page = self._drain_page
            self._drain_page += 1
            slots = victim.valid_slots_of_page(page)
            if not slots:
                continue
            spans.append((page, slots, victim.slot_lsns(page, slots)))
            moved += 1
        if spans:
            if len(spans) == 1:
                page, slots, _ = spans[0]
                values = self.flash.read_list(victim.block_id, page, slots, now)
                span_ecc = [self.ecc.decode_ms_list(values)]
            else:
                rbers, offsets = self.flash.read_span(
                    victim.block_id, [(p, s) for p, s, _ in spans], now)
                # Per-span max then the vectorised decode: both are exact
                # (reduceat max picks an element; decode_ms_many is
                # elementwise float64), so each latency equals the scalar
                # decode_ms_list of that span's reads.
                maxes = np.maximum.reduceat(rbers, offsets)
                span_ecc = self.ecc.decode_ms_many(maxes).tolist()
            for (page, slots, lsns), ecc_ms in zip(spans, span_ecc):
                ops.append(OpRecord(
                    OpKind.READ, victim.block_id, page, len(slots),
                    victim.is_slc, Cause.GC, 0, ecc_ms,
                ))
                ops.extend(self.relocate(victim, page, slots, lsns, now, Cause.GC))
                self.stats.moved_subpages += len(slots)

        if self._drain_page >= victim.next_page:
            if self.finish is not None:
                ops.extend(self.finish(now, Cause.GC))
            self.flash.erase(victim.block_id)
            ops.append(OpRecord(
                kind=OpKind.ERASE,
                block_id=victim.block_id,
                page=0,
                n_slots=0,
                is_slc=victim.is_slc,
                cause=Cause.GC,
            ))
            # A fault plan may retire the block on erase (grown bad block);
            # RETIRED blocks never rejoin the free pool.
            if victim.state is BlockState.FREE:
                self.allocator.release(victim.block_id)
            if self.wear is not None:
                self.wear.note_erase()
            self.stats.collections += 1
            self._victim = None
            self._drain_page = 0
        return max(moved, 1)

    def collect(self, victim: Block, now: Ms) -> list[OpRecord]:
        """Drain and erase one victim block in full (tests, wear paths)."""
        ops: list[OpRecord] = []
        self._begin(victim)
        while self._victim is not None:
            self._drain_step(now, victim.pages + 1, ops)
        return ops

    def collect_emergency(self, now: Ms) -> list[OpRecord]:
        """Force a full collection because an allocation is about to fail.

        Finishes any partially-drained victim, then collects one more full
        block if a victim exists.  Returns the (possibly empty) op list;
        the caller retries its allocation afterwards.
        """
        if self._collecting:
            return []
        self._collecting = True
        try:
            ops: list[OpRecord] = []
            if self._victim is not None:
                victim = self._victim
                while self._victim is not None:
                    self._drain_step(now, victim.pages + 1, ops)
                return ops
            victim = self._select(now)
            if victim is None:
                return ops
            self._begin(victim)
            while self._victim is not None:
                self._drain_step(now, victim.pages + 1, ops)
            return ops
        finally:
            self._collecting = False

    def _level_wear(self, now: Ms) -> list[OpRecord]:
        """Static wear levelling: recycle the least-worn resident block.

        Relocating the cold data (through the scheme's normal movement
        rules) returns the healthy block to the free pool, where the
        wear-aware allocator immediately favours it for fresh writes.
        """
        assert self.wear is not None
        source = self.wear.coldest_block()
        if source is None or source.state is not BlockState.FULL:
            return []
        ops: list[OpRecord] = []
        source.mark_victim()
        for page in range(source.next_page):
            slots = source.valid_slots_of_page(page)
            if not slots:
                continue
            lsns = source.slot_lsns(page, slots)
            values = self.flash.read_list(source.block_id, page, slots, now)
            ops.append(OpRecord(
                kind=OpKind.READ, block_id=source.block_id, page=page,
                n_slots=len(slots), is_slc=source.is_slc,
                cause=Cause.WEAR,
                ecc_ms=self.ecc.decode_ms_list(values),
            ))
            ops.extend(self.relocate(source, page, slots, lsns, now, Cause.WEAR))
        if self.finish is not None:
            ops.extend(self.finish(now, Cause.WEAR))
        self.flash.erase(source.block_id)
        ops.append(OpRecord(
            kind=OpKind.ERASE, block_id=source.block_id, page=0, n_slots=0,
            is_slc=source.is_slc, cause=Cause.WEAR,
        ))
        # Same retirement rule as _drain_step: a block the fault plan
        # retired on erase stays out of the free pool for good.
        if source.state is BlockState.FREE:
            self.allocator.release(source.block_id)
        self.wear.note_erase()
        self.wear.leveling_moves += 1
        return ops
