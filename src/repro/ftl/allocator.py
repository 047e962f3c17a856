"""Block allocation for one region (SLC-mode cache or high-density).

Two jobs:

* **wear-aware free pools** — one min-heap of free blocks per plane,
  keyed by erase count, so fresh writes land on the least-worn block of
  their plane (dynamic wear levelling);
* **striped active blocks** — one open block per (level, plane), with
  allocations rotating round-robin over the planes, so consecutive writes
  spread across channels and chips (the multilevel parallelism SSDsim is
  built around; a single global active block would serialise the whole
  device onto one chip).

Page allocation is always an active block's next sequential page, as NAND
requires.
"""

from __future__ import annotations

import heapq

import numpy as np

from ..errors import AllocationError
from ..nand.block import Block, BlockState
from ..nand.flash import FlashArray
from ..units import Ms

#: Free blocks host allocations may not dip into — garbage collection
#: always needs landing room, or a nearly-full region deadlocks.
GC_RESERVE_BLOCKS = 2


class VictimIndex:
    """Incremental GC-candidate index for one region.

    Membership is the set of FULL blocks, maintained by the
    :class:`~repro.nand.block.Block` watcher callbacks (``note_enter`` on
    OPEN→FULL, ``note_leave`` on victim selection or erase) instead of an
    O(region) state scan per GC trigger.  Score ingredients live in
    ascending-``block_id`` NumPy arrays that are rebuilt only when
    membership changes (``version`` bump) and patched in place for the
    *dirty* blocks whose content changed since the arrays were filled —
    so a victim selection costs O(dirty) updates plus one vectorised
    ``argmax`` over integers, in place of a full region rescan.

    The ascending-id order matters: it matches the order of the naive
    :meth:`RegionAllocator.victim_candidates` scan, so first-maximum
    selection (``np.argmax``) resolves score ties to the lowest
    ``block_id`` exactly like the documented policy tie-break.
    """

    __slots__ = ("flash", "block_ids", "members", "dirty", "version",
                 "_built_version", "blocks_list", "ids", "n_valid_arr",
                 "n_invalid_arr", "pages_free_arr", "total_sp_arr", "_slot")

    def __init__(self, flash: FlashArray, block_ids: list[int]):
        self.flash = flash
        self.block_ids = list(block_ids)
        #: block_id -> Block for every FULL block (the candidate set).
        self.members: dict[int, Block] = {}
        #: Members whose content changed since their array slot was filled.
        self.dirty: set[int] = set()
        #: Bumped on every membership change; triggers an array rebuild.
        self.version = 0
        self._built_version = -1
        self.blocks_list: list[Block] = []
        self.ids = np.empty(0, dtype=np.int64)
        self.n_valid_arr = np.empty(0, dtype=np.int64)
        self.n_invalid_arr = np.empty(0, dtype=np.int64)
        self.pages_free_arr = np.empty(0, dtype=np.int64)
        self.total_sp_arr = np.empty(0, dtype=np.int64)
        self._slot: dict[int, int] = {}
        for block_id in block_ids:
            block = flash.block(block_id)
            block.index = self
            if block.state is BlockState.FULL:
                self.members[block_id] = block

    # -- watcher callbacks (hot path: keep trivial) --------------------

    def note_enter(self, block: Block) -> None:
        """A block became FULL: it joins the candidate set."""
        self.members[block.block_id] = block
        self.version += 1

    def note_leave(self, block_id: int) -> None:
        """A member left (chosen as victim, or erased)."""
        if self.members.pop(block_id, None) is not None:
            self.version += 1
            self.dirty.discard(block_id)

    def note_change(self, block_id: int) -> None:
        """A member's content changed: its array slot is stale."""
        if block_id in self.members:
            self.dirty.add(block_id)

    # -- selection support ---------------------------------------------

    def _fill(self, i: int, block: Block) -> None:
        self.n_valid_arr[i] = block.n_valid
        self.n_invalid_arr[i] = block.n_invalid
        self.pages_free_arr[i] = block.pages - block.pages_with_valid
        self.total_sp_arr[i] = block.total_subpages

    def refresh(self) -> list[Block]:
        """Bring the score arrays current; returns the candidate blocks
        in ascending ``block_id`` order (aligned with the arrays)."""
        if self._built_version != self.version:
            order = sorted(self.members)
            self.blocks_list = [self.members[i] for i in order]
            self.ids = np.array(order, dtype=np.int64)
            self._slot = {bid: i for i, bid in enumerate(order)}
            n = len(order)
            self.n_valid_arr = np.empty(n, dtype=np.int64)
            self.n_invalid_arr = np.empty(n, dtype=np.int64)
            self.pages_free_arr = np.empty(n, dtype=np.int64)
            self.total_sp_arr = np.empty(n, dtype=np.int64)
            for i, block in enumerate(self.blocks_list):
                self._fill(i, block)
            self.dirty.clear()
            self._built_version = self.version
        elif self.dirty:
            slot = self._slot
            members = self.members
            # Slots are disjoint, so any order gives the same arrays; sorted
            # keeps the patch order itself deterministic (lint rule D003).
            for bid in sorted(self.dirty):
                self._fill(slot[bid], members[bid])
            self.dirty.clear()
        return self.blocks_list

    def candidates(self) -> list[Block]:
        """Current FULL blocks, ascending ``block_id`` (naive-scan order)."""
        return self.refresh()

    def verify(self) -> None:
        """Consistency-hook support: assert membership and scores agree
        with a naive rescan of the region."""
        rescan = {
            block.block_id
            for block in (self.flash.block(i) for i in self.block_ids)
            if block.state is BlockState.FULL
        }
        if rescan != set(self.members):
            raise AllocationError(
                f"victim index drifted: members {sorted(self.members)} "
                f"!= rescan {sorted(rescan)}")
        self.refresh()
        for i, block in enumerate(self.blocks_list):
            kept = (int(self.n_valid_arr[i]), int(self.n_invalid_arr[i]),
                    int(self.pages_free_arr[i]), int(self.total_sp_arr[i]))
            naive = (block.n_valid, block.n_invalid,
                     block.pages - block.pages_with_valid, block.total_subpages)
            pages_with_valid = int(block.valid.any(axis=1).sum())
            if kept != naive or block.pages_with_valid != pages_with_valid:
                raise AllocationError(
                    f"victim index scores drifted for block {block.block_id}: "
                    f"kept {kept}, naive {naive}, "
                    f"pages_with_valid {block.pages_with_valid} "
                    f"vs rescan {pages_with_valid}")


class RegionAllocator:
    """Free-pool and active-block management for one region."""

    def __init__(self, flash: FlashArray, block_ids: list[int], name: str,
                 max_stripes: int | None = None):
        if not block_ids:
            raise AllocationError(f"region {name!r} has no blocks")
        self.flash = flash
        self.name = name
        self.block_ids = list(block_ids)
        self.total_blocks = len(block_ids)

        geometry = flash.geometry
        plane_of = geometry.plane_of
        planes = sorted({plane_of(b) for b in block_ids})
        stripes = len(planes)
        if max_stripes is not None:
            # Small regions cannot afford one open block per plane per
            # level; folding planes into fewer stripes trades a little
            # parallelism for bounded active-block overhead.
            stripes = max(1, min(stripes, max_stripes))
        self._plane_index = {plane: i % stripes for i, plane in enumerate(planes)}
        self.stripes = stripes
        self._free: list[list[tuple[int, int]]] = [[] for _ in range(stripes)]
        for block_id in block_ids:
            stripe = self._plane_index[plane_of(block_id)]
            self._free[stripe].append(
                (flash.block(block_id).erase_count, block_id))
        for heap in self._free:
            heapq.heapify(heap)
        self._free_count = self.total_blocks

        #: (level, stripe) -> open block.
        self.active: dict[tuple[int, int], Block] = {}
        #: level -> next stripe to allocate from (round robin).
        self._cursor: dict[int, int] = {}
        self.allocated_pages = 0

        #: Incrementally-maintained GC candidate set + score arrays.
        self.victim_index = VictimIndex(flash, self.block_ids)

    # -- pool state -----------------------------------------------------

    @property
    def free_blocks(self) -> int:
        """Number of blocks in the free pools."""
        return self._free_count

    @property
    def free_fraction(self) -> float:
        """Free-pool share of the region (drives the GC trigger)."""
        return self._free_count / self.total_blocks

    @property
    def retired_blocks(self) -> int:
        """Grown bad blocks permanently lost to the region (capacity
        degradation under fault injection; 0 without a fault plan)."""
        flash = self.flash
        return sum(1 for bid in self.block_ids
                   if flash.block(bid).state is BlockState.RETIRED)

    def release(self, block_id: int) -> None:
        """Return an erased block to its plane's free pool."""
        block = self.flash.block(block_id)
        if block.state is not BlockState.FREE:
            raise AllocationError(
                f"region {self.name}: releasing non-free block {block_id} "
                f"({block.state.value})")
        stripe = self._plane_index[self.flash.geometry.plane_of(block_id)]
        heapq.heappush(self._free[stripe], (block.erase_count, block_id))
        self._free_count += 1

    def _pop_free(self, stripe: int, level: int, now: Ms) -> Block | None:
        """Open the least-worn free block, preferring ``stripe``'s plane."""
        order = [stripe] + [s for s in range(self.stripes) if s != stripe]
        for s in order:
            heap = self._free[s]
            while heap:
                _, block_id = heapq.heappop(heap)
                block = self.flash.block(block_id)
                if block.state is BlockState.FREE:
                    block.open_as(level, now)
                    self._free_count -= 1
                    return block
                # Stale entry: the block was reopened through another path.
        return None

    # -- page allocation ---------------------------------------------------

    def alloc_page(self, level: int, now: Ms,
                   for_gc: bool = False) -> tuple[Block, int] | None:
        """Next free page of the active block for ``level``.

        Rotates over the planes; opens a fresh block when the stripe's
        active one is full or stale.  Returns ``None`` when every pool is
        exhausted (caller must collect garbage or fall back to the other
        region).  Host allocations (``for_gc=False``) may not open one of
        the last :data:`GC_RESERVE_BLOCKS` free blocks — relocation always
        needs landing room.
        """
        stripe = self._cursor.get(level, 0)
        self._cursor[level] = (stripe + 1) % self.stripes

        block = self.active.get((level, stripe))
        # The active reference can go stale: a FULL active may be chosen
        # as a GC victim, erased, released — or even reopened under
        # another level.  Only an OPEN, non-full block labelled for this
        # level is programmable here.
        if (block is None or block.state is not BlockState.OPEN
                or block.is_full or block.level != level):
            if not for_gc and self._free_count <= GC_RESERVE_BLOCKS:
                return None
            block = self._pop_free(stripe, level, now)
            if block is None:
                return None
            self.active[(level, stripe)] = block
        self.allocated_pages += 1
        return block, block.next_page

    # -- GC support ----------------------------------------------------------

    def victim_candidates(self) -> list[Block]:
        """Blocks eligible for collection: fully-programmed, not free.

        Served from the incremental :class:`VictimIndex` (ascending
        ``block_id``, identical to the historical full-region scan).
        """
        return self.victim_index.candidates()

    def occupancy(self) -> dict[str, int]:
        """Snapshot used by tests and reports."""
        states = {s: 0 for s in BlockState}
        for block_id in self.block_ids:
            states[self.flash.block(block_id).state] += 1
        return {s.value: n for s, n in states.items()}
