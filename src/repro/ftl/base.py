"""Shared FTL plumbing.

:class:`BaseFTL` owns the flash array, the per-region allocators and
garbage collectors, the ECC model and the LSN -> PPA subpage map, and
implements everything the four schemes have in common: request dispatch,
the read path (including *pseudo reads* of never-written data, assumed
pre-existing in the high-density region), allocation helpers with GC
fallback, statistics, and :meth:`BaseFTL.place` — the one write
primitive every host write, GC move and fault move goes through.

Subclasses choose slot layouts and destinations::

    write(lsns, now)             the scheme's write path
    _relocate_slc_page(...)      where SLC GC moves a page's valid data
    _relocate_mlc_page(...)      where MLC GC moves a page's valid data
    _make_slc_policy()           the SLC victim-selection policy (optional)
    _pre_erase_hook()            what GC runs before an erase (optional)
"""

from __future__ import annotations

import abc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..config import SSDConfig
from ..error.ecc import EccModel
from ..errors import OutOfSpaceError
from ..nand.block import Block
from ..nand.flash import FlashArray
from ..nand.geometry import PPA
from ..nand.wear import WearTracker
from ..sim.ops import Cause, OpKind, OpRecord
from ..units import Lsn, Ms
from .allocator import RegionAllocator
from .gc import FinishFn, GarbageCollector
from .levels import BlockLevel
from .mapping import SubpageMap
from .translation import CachedMappingTable
from .victim import GreedyPageVictimPolicy, GreedyVictimPolicy, VictimPolicy

if TYPE_CHECKING:
    from ..faults.plan import FaultPlan

#: Key-space offset separating second-level translation entries from the
#: first-level (page map) entries in the cached mapping table.
SECOND_LEVEL_KEY_BASE = 1 << 40


@dataclass
class FtlStats:
    """Scheme-agnostic counters (drive Figures 5, 6, 7 and diagnostics)."""

    host_write_requests: int = 0
    host_read_requests: int = 0
    host_programs_slc: int = 0
    host_programs_mlc: int = 0
    gc_programs_slc: int = 0
    gc_programs_mlc: int = 0
    host_subpages_slc: int = 0
    host_subpages_mlc: int = 0
    gc_subpages_slc: int = 0
    gc_subpages_mlc: int = 0
    #: Host write chunks landing at each block level (Figure 7).
    level_writes: dict[int, int] = field(default_factory=dict)
    intra_page_updates: int = 0
    upgrade_moves: int = 0
    new_data_writes: int = 0
    update_writes: int = 0
    rmw_read_ops: int = 0
    pseudo_read_ops: int = 0
    #: Host writes that had to land in the high-density region.
    slc_overflow_chunks: int = 0
    #: Subpages the SLC cache ejected into the high-density region
    #: (Figure 6's "completed writes in MLC blocks" attributable to the
    #: cache scheme, excluding MLC-internal GC churn).
    evicted_subpages_to_mlc: int = 0

    def note_level_write(self, level: int) -> None:
        """Count one host write chunk completed at ``level``."""
        self.level_writes[level] = self.level_writes.get(level, 0) + 1


class BaseFTL(abc.ABC):
    """Common machinery for the Baseline, MGA, Delta and IPU schemes."""

    scheme_name: str = "base"
    uses_partial_programming: bool = False

    def __init__(self, config: SSDConfig, flash: FlashArray | None = None):
        config.validate()
        self.config = config
        self.flash = flash if flash is not None else FlashArray(config)
        self.geometry = self.flash.geometry
        self.ecc = EccModel(config.timing, config.reliability)
        self.rber = self.flash.rber
        self.stats = FtlStats()

        # The SLC region is small; cap its write striping so the open
        # blocks per (level, stripe) don't consume the whole cache.
        slc_stripes = max(1, min(4, len(self.flash.slc_block_ids) // 8))
        self.slc_alloc = RegionAllocator(self.flash, True,
                                         max_stripes=slc_stripes)
        self.mlc_alloc = RegionAllocator(self.flash, False)
        self.slc_wear = WearTracker(self.flash.region_blocks(True), config.cache)
        self.mlc_wear = WearTracker(self.flash.region_blocks(False), config.cache)
        finish = self._pre_erase_hook()
        self.slc_gc = GarbageCollector(
            self.flash, self.slc_alloc, self._make_slc_policy(),
            self._relocate_slc_page, self.ecc, config.cache, wear=self.slc_wear,
            finish=finish,
        )
        self.mlc_gc = GarbageCollector(
            self.flash, self.mlc_alloc, self._make_mlc_policy(),
            self._relocate_mlc_page, self.ecc, config.cache, wear=self.mlc_wear,
            finish=finish,
        )

        self._subpage_bits = self.geometry.subpage_size * 8
        self._max_page_programs = config.reliability.max_page_programs
        mlc_base = self.rber.base(config.reliability.initial_pe_cycles, slc=False)
        self._pseudo_ecc_ms = self.ecc.decode_ms(mlc_base)
        self._pseudo_rber = mlc_base
        #: Optional DFTL-style cached mapping table (extension).
        self.cmt = (CachedMappingTable(config.translation)
                    if config.translation.enabled else None)
        #: Optional :class:`repro.faults.FaultPlan` set by
        #: :func:`repro.faults.attach_faults`.  ``None`` (the default)
        #: keeps every path below bit-identical to a device without
        #: fault injection.
        self.faults: "FaultPlan | None" = None
        #: LSN -> PPA for every live logical subpage; only :meth:`place`
        #: binds, and the schemes unbind when they drop old copies.
        self.subpage_map = SubpageMap()

    # -- mapping ----------------------------------------------------------

    def lookup(self, lsn: Lsn) -> PPA | None:
        """Current physical location of ``lsn`` (None if never written)."""
        return self.subpage_map.lookup(lsn)

    def iter_bindings(self):
        """Yield ``(lsn, PPA)`` for every live logical subpage."""
        yield from self.subpage_map.items()

    def drop_stale(self, lsns: list[Lsn], mappings: list[PPA | None]) -> None:
        """Unbind ``lsns`` and invalidate their old copies (``mappings``).

        Old versions of a chunk usually share one physical page, so the
        invalidation runs once per page, not once per subpage.
        """
        unbind = self.subpage_map.unbind
        stale: dict[tuple[int, int], list[int]] = {}
        for lsn, ppa in zip(lsns, mappings):
            if ppa is not None:
                stale.setdefault((ppa.block, ppa.page), []).append(ppa.slot)
                unbind(lsn)
        invalidate_many = self.flash.invalidate_many
        for (block_id, page), slots in stale.items():
            invalidate_many(block_id, page, slots)

    # -- scheme hooks -----------------------------------------------------

    @abc.abstractmethod
    def write(self, lsns: list[Lsn], now: Ms) -> list[OpRecord]:
        """Service a host write of the given logical subpages."""

    @abc.abstractmethod
    def _relocate_slc_page(self, victim: Block, page: int, slots: list[int],
                           lsns: list[Lsn], now: Ms, cause: Cause) -> list[OpRecord]:
        """Move one SLC victim page's valid data (GC / wear levelling)."""

    @abc.abstractmethod
    def _relocate_mlc_page(self, victim: Block, page: int, slots: list[int],
                           lsns: list[Lsn], now: Ms, cause: Cause) -> list[OpRecord]:
        """Move one MLC victim page's valid data (GC / wear levelling)."""

    def _make_slc_policy(self) -> VictimPolicy:
        """SLC GC victim policy; Baseline/MGA use greedy."""
        return GreedyVictimPolicy()

    def _make_mlc_policy(self) -> VictimPolicy:
        """High-density GC victim policy.

        Schemes whose GC moves pages one-to-one (no compaction across
        pages) must count whole reclaimable pages, not subpages.
        """
        return GreedyPageVictimPolicy()

    def _pre_erase_hook(self) -> FinishFn | None:
        """What both collectors run before erasing a drained victim
        (MGA flushes its eviction buffer); none by default."""
        return None

    # -- request dispatch -----------------------------------------------------

    def handle_write(self, lsns: list[Lsn], now: Ms) -> list[OpRecord]:
        """Write path, preceded by the (bounded) foreground GC check.

        GC work runs ahead of the write on the same chips, so a request
        that trips the threshold pays the blocking cost — and when bounded
        GC cannot keep up, the write path spills to the high-density
        region instead (the Figure 6 dynamic).
        """
        self.stats.host_write_requests += 1
        ops = self._translate(lsns, write=True) if self.cmt is not None else []
        # Inline duplicate of ``maybe_collect``'s do-nothing fast path:
        # the trigger check runs twice per host request, and the usual
        # answer is "no work" — skip the call frames entirely then.
        gc = self.slc_gc
        if gc._victim is not None or gc.allocator._free_count < gc._threshold:
            ops.extend(gc.maybe_collect(now))
        gc = self.mlc_gc
        if gc._victim is not None or gc.allocator._free_count < gc._threshold:
            ops.extend(gc.maybe_collect(now))
        ops.extend(self.write(lsns, now))
        faults = self.faults
        if faults is not None and faults.pending:
            ops.extend(faults.drain_ops())
        return ops

    def handle_read(self, lsns: list[Lsn], now: Ms) -> list[OpRecord]:
        """Read path: mapped subpages from flash, the rest as pseudo reads.

        GC also advances on read arrivals — a device collects in the
        background regardless of request direction, and read-dominated
        traces would otherwise starve the collector between rare writes.
        """
        self.stats.host_read_requests += 1
        gc_ops = (self._translate(lsns, write=False)
                  if self.cmt is not None else [])
        # Same inline trigger fast path as handle_write.
        gc = self.slc_gc
        if gc._victim is not None or gc.allocator._free_count < gc._threshold:
            gc_ops.extend(gc.maybe_collect(now))
        gc = self.mlc_gc
        if gc._victim is not None or gc.allocator._free_count < gc._threshold:
            gc_ops.extend(gc.maybe_collect(now))
        groups: dict[tuple[int, int], list[int]] = {}
        pseudo: list[int] = []
        for lsn in lsns:
            ppa = self.lookup(lsn)
            if ppa is None:
                pseudo.append(lsn)
            else:
                groups.setdefault((ppa.block, ppa.page), []).append(ppa.slot)

        ops: list[OpRecord] = []
        faults = self.faults
        reclaims: list[tuple[int, int]] = []
        flash = self.flash
        for (block_id, page), slots in groups.items():
            slots.sort()
            # Scalar pricing path: python floats end-to-end.  A group
            # covers at most ``spp`` subpages, and for those sizes
            # ``sum``/``max`` over python floats are bit-identical to the
            # float64 array reductions the ndarray path used.
            values = flash.read_list(block_id, page, slots, now)
            block = flash.blocks[block_id]
            # Positional construction: keyword binding on the record
            # costs ~40% of the constructor on this path.
            ops.append(OpRecord(
                OpKind.READ, block_id, page, len(slots), block.is_slc,
                Cause.HOST, 0, self.ecc.decode_ms_list(values),
                sum(values) * self._subpage_bits,
            ))
            if faults is not None:
                p_fail = self.ecc.uncorrectable_probability_for_subpages(values)
                retries, reclaim = faults.read_outcome(p_fail)
                for _ in range(retries):
                    # Each ladder rung re-senses the page; the host
                    # request waits for it (that is the latency
                    # degradation campaigns measure).
                    retry_values = flash.read_list(block_id, page, slots, now)
                    ops.append(OpRecord(
                        kind=OpKind.READ, block_id=block_id, page=page,
                        n_slots=len(slots), is_slc=block.is_slc,
                        cause=Cause.HOST,
                        ecc_ms=self.ecc.decode_ms_list(retry_values),
                        raw_errors=sum(retry_values) * self._subpage_bits,
                    ))
                if reclaim:
                    reclaims.append((block_id, page))
        # Reclaims run after every group has been read: relocation can
        # trigger GC, which must not erase a block a later group still
        # needs to sense.
        for block_id, page in reclaims:
            ops.extend(self._fault_reclaim_page(
                self.flash.block(block_id), page, now))
        ops.extend(self._pseudo_reads(pseudo))
        ops.extend(gc_ops)
        if faults is not None and faults.pending:
            ops.extend(faults.drain_ops())
        return ops

    def translation_keys(self, lsns: list[Lsn]) -> list[int]:
        """Cached-mapping-table keys a request touches.

        Page-mapped schemes (Baseline, IPU) consult one first-level entry
        per logical page; MGA additionally pages in its second-level
        subpage entries (override).
        """
        spp = self.geometry.subpages_per_page
        return sorted({lsn // spp for lsn in lsns})

    def _translate(self, lsns: list[Lsn], write: bool) -> list[OpRecord]:
        """Charge cached-mapping-table misses as foreground flash ops."""
        if self.cmt is None:
            return []
        ops: list[OpRecord] = []
        spp = self.geometry.subpages_per_page
        n_mlc = len(self.flash.mlc_block_ids)
        for key in self.translation_keys(lsns):
            miss, writeback = self.cmt.access(key, dirty=write)
            if not miss and not writeback:
                continue
            block_id = self.flash.mlc_block_ids[
                self.cmt.page_of(key) % n_mlc]
            if writeback:
                ops.append(OpRecord(
                    kind=OpKind.PROGRAM, block_id=block_id, page=0,
                    n_slots=spp, is_slc=False, cause=Cause.TRANSLATION))
            if miss:
                ops.append(OpRecord(
                    kind=OpKind.READ, block_id=block_id, page=0,
                    n_slots=spp, is_slc=False, cause=Cause.TRANSLATION,
                    ecc_ms=self._pseudo_ecc_ms))
        return ops

    def _pseudo_reads(self, lsns: list[Lsn]) -> list[OpRecord]:
        """Reads of never-written data: priced as base-RBER MLC page reads.

        The data is assumed to pre-exist in the high-density region; a
        deterministic hash spreads the traffic over the MLC chips.
        """
        if not lsns:
            return []
        ops: list[OpRecord] = []
        spp = self.geometry.subpages_per_page
        by_lpn: dict[int, int] = {}
        for lsn in lsns:
            lpn = lsn // spp
            by_lpn[lpn] = by_lpn.get(lpn, 0) + 1
        for lpn, count in by_lpn.items():
            block_id = self.flash.mlc_block_ids[lpn % len(self.flash.mlc_block_ids)]
            ops.append(OpRecord(
                kind=OpKind.READ, block_id=block_id, page=0,
                n_slots=count, is_slc=False, cause=Cause.HOST,
                ecc_ms=self._pseudo_ecc_ms,
                raw_errors=self._pseudo_rber * count * self._subpage_bits,
            ))
            self.stats.pseudo_read_ops += 1
        return ops

    def idle_collect(self, now: Ms) -> list[OpRecord]:
        """Run every collector to its restore watermark, plus any pending
        fault work, without a host request footing the trigger.

        No replay driver calls it.  It stays because the invariant tests
        drain GC through it and ``perf/layers.py`` traces it by name, so
        the perf harness's entry-point checks resolve it.
        """
        ops: list[OpRecord] = []
        for gc in (self.slc_gc, self.mlc_gc):
            for _ in range(gc.allocator.total_blocks):
                step = gc.maybe_collect(now)
                if not step:
                    break
                ops.extend(step)
        faults = self.faults
        if faults is not None and faults.pending:
            ops.extend(faults.drain_ops())
        return ops

    # -- allocation helpers -----------------------------------------------------

    def alloc_slc_page(self, level: BlockLevel) -> tuple[Block, int] | None:
        """SLC page at ``level``, or None when the cache has no room.

        Deliberately does *not* collect garbage inline: foreground GC is
        bounded and runs per request, so a dry pool means the cache is
        under pressure and the write belongs in the high-density region.
        """
        return self.slc_alloc.alloc_page(int(level))

    def alloc_host_page(self, level: BlockLevel, now: Ms,
                        ops: list[OpRecord]) -> tuple[Block, int]:
        """SLC page at ``level`` for a host chunk, else a high-density page
        (counted as an SLC overflow)."""
        res = self.alloc_slc_page(level)
        if res is None:
            res = self.alloc_mlc_page(now, ops)
            self.stats.slc_overflow_chunks += 1
        return res

    def alloc_mlc_page(self, now: Ms, ops: list[OpRecord],
                       for_gc: bool = False) -> tuple[Block, int]:
        """MLC page; escalates through emergency GC before giving up.

        Host allocations respect the GC reserve; when even that fails the
        region is force-collected in full (the host pays the blocking
        cost, as on a real device running near-full).  Emergency GC ops
        are appended to ``ops``.
        """
        level = int(BlockLevel.HIGH_DENSITY)
        res = self.mlc_alloc.alloc_page(level, for_gc=for_gc)
        if res is None:
            ops.extend(self.mlc_gc.collect_emergency(now))
            res = self.mlc_alloc.alloc_page(level, for_gc=for_gc)
        if res is None and not for_gc:
            # Free blocks exist but sit in the GC reserve: drain one more
            # victim so the host write can proceed.
            ops.extend(self.mlc_gc.collect_emergency(now))
            res = self.mlc_alloc.alloc_page(level, for_gc=for_gc)
            if res is None:
                res = self.mlc_alloc.alloc_page(level, for_gc=True)
        if res is None:
            raise OutOfSpaceError(
                f"{self.scheme_name}: high-density region exhausted")
        return res

    # -- the write primitive ---------------------------------------------------

    def place(self, block: Block, page: int, slots: list[int],
              lsns: list[Lsn], now: Ms, cause: Cause,
              ) -> tuple[OpRecord, Block, int]:
        """Program ``lsns`` into ``slots`` of one page and map them there.

        Every host write, GC move and fault move of every scheme lands
        through here; the schemes differ only in the slots and the page
        they pass, and drop the old copies themselves (before or after
        allocating, as each scheme's order requires).  Host programs also
        count toward the level they landed at (Figure 7).

        With a fault plan attached the pulse may fail: the data is then
        remapped to a fresh page (same slot indices) and bound *there*.
        The returned ``(op, block, page)`` names the actual destination,
        for callers that keep per-page state (pack cursors, hotness
        marks).

        Mirrors ``FlashArray.program`` inline (same bookkeeping, same
        order) — this runs once per program, and the extra call frame is
        measurable on the simulation hot path.
        """
        faults = self.faults
        if faults is not None and faults.program_fails():
            block, page = self._fault_remap_program(
                block, page, slots, lsns, now, cause)
        flash = self.flash
        partial, disturbed = block.program_disturb(
            page, slots, lsns, now, self._max_page_programs)
        slc = block.is_slc
        if partial:
            flash.partial_programs += 1
            flash.disturbed_valid_subpages += disturbed
        if slc:
            flash.programs_slc += 1
        else:
            flash.programs_mlc += 1
        if cause is Cause.HOST:
            if slc:
                self.stats.host_programs_slc += 1
                self.stats.host_subpages_slc += len(slots)
            else:
                self.stats.host_programs_mlc += 1
                self.stats.host_subpages_mlc += len(slots)
            self.stats.note_level_write(
                block.level if block.level is not None else 0)
        else:
            if slc:
                self.stats.gc_programs_slc += 1
                self.stats.gc_subpages_slc += len(slots)
            else:
                self.stats.gc_programs_mlc += 1
                self.stats.gc_subpages_mlc += len(slots)
        block_id = block.block_id
        bind = self.subpage_map.bind
        make = PPA._make  # skips the NamedTuple __new__ frame
        for lsn, slot in zip(lsns, slots):
            bind(lsn, make((block_id, page, slot)))
        # Without partial programming the whole page buffer is driven per
        # program pass; partial programming masks untouched bit lines and
        # transfers only the written subpages (Figure 1).
        transfer = (len(slots) if self.uses_partial_programming
                    else self.geometry.subpages_per_page)
        op = OpRecord(OpKind.PROGRAM, block_id, page, len(slots), slc,
                      cause, transfer)
        return op, block, page

    # -- fault handling ----------------------------------------------------

    def _fault_remap_program(self, block: Block, page: int, slots: list[int],
                             lsns: list[Lsn], now: Ms,
                             cause: Cause) -> tuple[Block, int]:
        """Service a sampled program failure; returns the fresh target.

        A real program failure leaves the page in an undefined state that
        can never be trusted again, so the wasted pulse physically
        programs its target and the slots are invalidated on the spot —
        the garbage attracts GC, which erases the (now condemned) block
        and retires it.  The pulse is charged to the triggering cause
        through the plan's pending-op list, a fresh page is allocated
        (same slot indices, so the caller's LSN↔slot pairing holds), and
        further failures on the new target retry up to the config's
        ``program_retry_limit``.
        """
        faults = self.faults
        assert faults is not None
        flash = self.flash
        spp = self.geometry.subpages_per_page
        attempts = 0
        while True:
            attempts += 1
            flash.program(block.block_id, page, slots, lsns, now)
            for slot in slots:
                flash.invalidate(block.block_id, page, slot)
            faults.note_program_failure(block.block_id)
            faults.pending.append(OpRecord(
                kind=OpKind.PROGRAM, block_id=block.block_id, page=page,
                n_slots=len(slots), is_slc=block.is_slc, cause=cause,
                transfer_slots=(len(slots) if self.uses_partial_programming
                                else spp),
            ))
            block, page = self._fault_program_realloc(block, now)
            if attempts >= faults.config.program_retry_limit:
                return block, page
            if not faults.program_fails():
                return block, page

    def _fault_program_realloc(self, failed: Block,
                               now: Ms) -> tuple[Block, int]:
        """Fresh landing page after a program failure.

        Prefers the failed block's own region and level; a dry SLC pool
        is emergency-collected first and only then spills to the
        high-density region.  Allocation ignores the host GC reserve
        (``for_gc=True``): the data already exists and must land
        somewhere, exactly like a relocation.
        """
        faults = self.faults
        assert faults is not None
        if failed.is_slc:
            level = failed.level if failed.level is not None else 0
            res = self.slc_alloc.alloc_page(level, for_gc=True)
            if res is None:
                faults.pending.extend(self.slc_gc.collect_emergency(now))
                res = self.slc_alloc.alloc_page(level, for_gc=True)
            if res is not None:
                return res
        return self.alloc_mlc_page(now, faults.pending, for_gc=True)

    def _fault_reclaim_page(self, block: Block, page: int, now: Ms,
                            slots: list[int] | None = None) -> list[OpRecord]:
        """Relocate a page's (still-)valid data after a fault.

        Serves read reclaim (a retry ladder barely saved or lost the
        page) and torn-page repair after power loss.  ``slots`` narrows
        the move to specific subpages; either way only currently-valid
        slots are moved, so a repair racing an interleaved GC of the same
        block degrades to a no-op instead of double-relocating.
        """
        valid = block.valid_slots_of_page(page)
        if slots is not None:
            wanted = set(slots)
            valid = [s for s in valid if s in wanted]
        if not valid:
            return []
        lsns = block.slot_lsns(page, valid)
        relocate = (self._relocate_slc_page if block.is_slc
                    else self._relocate_mlc_page)
        ops = list(relocate(block, page, valid, lsns, now, Cause.FAULT))
        # MGA buffers SLC relocations until a GC finish hook would flush
        # them; a fault reclaim must complete immediately.
        gc = self.slc_gc if block.is_slc else self.mlc_gc
        if gc.finish is not None:
            ops.extend(gc.finish(now, Cause.FAULT))
        faults = self.faults
        if faults is not None:
            faults.stats.fault_relocations += 1
        return ops

    # -- shared chunking -----------------------------------------------------------

    def chunks_by_lpn(self, lsns: list[Lsn]) -> list[list[Lsn]]:
        """Split a request's subpages into per-logical-page chunks.

        Chunking is stable across rewrites of the same extent, which is
        what lets IPU find all of a chunk's old data in a single physical
        page.
        """
        if not lsns:
            return []
        spp = self.geometry.subpages_per_page
        if len(lsns) == 1:
            return [list(lsns)]
        first = lsns[0]
        chunks: list[list[int]] = []
        current: list[int] = [first]
        cur_lpn = first // spp
        for lsn in lsns[1:]:
            lpn = lsn // spp
            if lpn != cur_lpn:
                chunks.append(current)
                current = []
                cur_lpn = lpn
            current.append(lsn)
        chunks.append(current)
        return chunks

    # -- invariants (test support) ----------------------------------------------------

    def check_consistency(self) -> None:
        """Assert map <-> flash agreement for every binding, and that every
        block's mirrors agree with the region arrays (test hook)."""
        for lsn, ppa in self.iter_bindings():
            block = self.flash.block(ppa.block)
            if not block.valid[ppa.page, ppa.slot]:
                raise AssertionError(
                    f"{self.scheme_name}: LSN {lsn} maps to invalid "
                    f"subpage {ppa}")
            stored = int(block.slot_lsn[ppa.page, ppa.slot])
            if stored != lsn:
                raise AssertionError(
                    f"{self.scheme_name}: LSN {lsn} maps to {ppa} which "
                    f"stores LSN {stored}")
        self.flash.verify_array_state()
