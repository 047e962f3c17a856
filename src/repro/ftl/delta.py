"""*Delta* — opportunistic in-place delta compression (Zhang et al.,
FAST'16), the paper's closest intellectual predecessor (Section 2.1).

An update is compressed as a delta against the original and appended into
the *same page's* free space with partial programming; the original stays
valid (reads need original + deltas), so — unlike IPU — every append
disturbs **live** in-page data.  This is precisely the error behaviour the
ICPP paper measures in Figure 2 and designs IPU to avoid, which makes the
scheme a valuable fourth comparator: it shares IPU's page-per-request
layout and in-page appends but not its invalidate-first rule.

Model notes (we have no data contents to compress):

* a delta costs ``ceil(update_bytes * delta_ratio)`` bytes, packed into
  the page's free slots byte-wise; a new slot is partial-programmed with
  the :data:`DELTA_LSN` sentinel when the packed area grows into it (the
  sentinel slot is immediately invalidated — delta bytes are metadata of
  the original mapping, not independently-mapped data, and they die when
  the original is consolidated or superseded);
* each append is one partial-program pass, so the manufacturer limit
  bounds the chain depth exactly as it bounds IPU's in-page updates;
* reads of delta'd data fetch the original slots plus the delta slots
  (same page, longer transfer, worse ECC because of the absorbed
  disturb); writes that do not fit fall back to a fresh page and the
  stale page (original + deltas) becomes garbage.
"""

from __future__ import annotations

import math

from ..config import SSDConfig
from ..nand.block import Block
from ..nand.flash import FlashArray
from ..sim.ops import Cause, OpKind, OpRecord
from .base import BaseFTL
from .levels import BlockLevel
from ..units import Lsn, Ms

#: Sentinel stored in slots holding packed delta bytes.
DELTA_LSN: int = -2


class DeltaFTL(BaseFTL):
    """In-place delta compression in SLC-mode pages."""

    scheme_name = "delta"
    uses_partial_programming = True

    def __init__(self, config: SSDConfig, flash: FlashArray | None = None,
                 delta_ratio: float = 0.35):
        if not 0.0 < delta_ratio <= 1.0:
            raise ValueError(f"delta_ratio must lie in (0, 1], got {delta_ratio}")
        super().__init__(config, flash)
        self.delta_ratio = delta_ratio
        #: (block_id, page) -> (delta_bytes_used, delta_slots, chain_len)
        self._delta_state: dict[tuple[int, int], tuple[int, int, int]] = {}

    # -- write path -------------------------------------------------------------

    def write(self, lsns: list[Lsn], now: Ms) -> list[OpRecord]:
        ops: list[OpRecord] = []
        lookup = self.subpage_map.lookup
        for chunk in self.chunks_by_lpn(lsns):
            mappings = [lookup(lsn) for lsn in chunk]
            if self._try_delta_append(chunk, mappings, now, ops):
                continue
            # Out of place: new data, or a delta that did not fit.  The
            # stale page (original + deltas) becomes garbage.
            if any(m is not None for m in mappings):
                self.stats.update_writes += 1
            else:
                self.stats.new_data_writes += 1
            self.drop_stale(chunk, mappings)
            for m in mappings:
                if m is not None:
                    self._delta_state.pop((m.block, m.page), None)
            block, page = self.alloc_host_page(BlockLevel.WORK, now, ops)
            ops.append(self.place(block, page, list(range(len(chunk))),
                                  chunk, now, Cause.HOST)[0])
        return ops

    def _try_delta_append(self, chunk, mappings, now, ops) -> bool:
        """Append a compressed delta into the page holding the originals."""
        if any(m is None for m in mappings):
            return False
        first = mappings[0]
        if any((m.block, m.page) != (first.block, first.page) for m in mappings[1:]):
            return False
        block = self.flash.block(first.block)
        if not block.mode.is_slc:
            return False
        from ..nand.block import BlockState
        if block.state not in (BlockState.OPEN, BlockState.FULL):
            return False
        page = first.page
        if block.pass_counts[page] >= self.config.reliability.max_page_programs:
            return False

        subpage = self.geometry.subpage_size
        delta_bytes = math.ceil(len(chunk) * subpage * self.delta_ratio)
        used, delta_slots, chain = self._delta_state.get(
            (first.block, page), (0, 0, 0))
        free_slots = block.free_slots_of_page(page)
        capacity = delta_slots * subpage - used + len(free_slots) * subpage
        if delta_bytes > capacity:
            return False

        # Grow the packed delta area into free slots as needed.
        need_new_slots = max(
            0, math.ceil((used + delta_bytes) / subpage) - delta_slots)
        new_slots = free_slots[:need_new_slots]
        if new_slots:
            self.flash.program(first.block, page, new_slots,
                               [DELTA_LSN] * len(new_slots), now)
            for slot in new_slots:
                # Delta bytes are metadata of the original mapping, not
                # independently-mapped data.
                self.flash.invalidate(first.block, page, slot)
        else:
            # The pass reprograms bytes inside the packed area (the page
            # and its neighbours absorb disturb like any partial pass).
            self.flash.reprogram(first.block, page)

        self._delta_state[(first.block, page)] = (
            used + delta_bytes, delta_slots + len(new_slots), chain + 1)
        ops.append(OpRecord(
            kind=OpKind.PROGRAM, block_id=first.block, page=page,
            n_slots=max(1, len(new_slots)), is_slc=True, cause=Cause.HOST,
            transfer_slots=max(1, math.ceil(delta_bytes / subpage)),
        ))
        if block.mode.is_slc:
            self.stats.host_programs_slc += 1
            self.stats.host_subpages_slc += max(1, len(new_slots))
        self.stats.intra_page_updates += 1  # in-page service, delta-style
        self.stats.update_writes += 1
        level = block.level if block.level is not None else 0
        self.stats.note_level_write(level)
        return True

    # -- read path (originals + deltas) ----------------------------------------

    def handle_read(self, lsns: list[Lsn], now: Ms) -> list[OpRecord]:
        ops = super().handle_read(lsns, now)
        # Charge the extra transfer of delta slots sharing the read pages.
        extra: dict[tuple[int, int], int] = {}
        for lsn in lsns:
            ppa = self.subpage_map.lookup(lsn)
            if ppa is None:
                continue
            key = (ppa.block, ppa.page)
            state = self._delta_state.get(key)
            if state and state[1] > 0:
                extra[key] = state[1]
        patched: list[OpRecord] = []
        for op in ops:
            key = (op.block_id, op.page)
            if (op.kind is OpKind.READ and op.cause is Cause.HOST
                    and key in extra):
                op = op._replace(
                    transfer_slots=op.channel_slots + extra.pop(key))
            patched.append(op)
        return patched

    # -- GC movement: consolidation -----------------------------------------------

    def _relocate_page(self, victim: Block, page: int, slots: list[int],
                       lsns: list[Lsn], now: Ms, cause: Cause,
                       ) -> list[OpRecord]:
        """Move consolidated data (deltas applied) to a fresh MLC page."""
        ops: list[OpRecord] = []
        self.flash.invalidate_many(victim.block_id, page, slots)
        self._delta_state.pop((victim.block_id, page), None)
        real = [lsn for lsn in lsns if lsn != DELTA_LSN]
        if not real:
            return ops
        block, npage = self.alloc_mlc_page(now, ops, for_gc=True)
        ops.append(self.place(block, npage, list(range(len(real))), real,
                              now, cause)[0])
        return ops

    def _relocate_slc_page(self, victim, page, slots, lsns, now, cause):
        self.stats.evicted_subpages_to_mlc += sum(
            1 for l in lsns if l != DELTA_LSN)
        return self._relocate_page(victim, page, slots, lsns, now, cause)

    def _relocate_mlc_page(self, victim, page, slots, lsns, now, cause):
        return self._relocate_page(victim, page, slots, lsns, now, cause)
