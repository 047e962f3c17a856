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
from ..nand.block import BLOCK_STATE_CODES, Block, BlockState
from ..nand.flash import FlashArray

#: Free blocks host allocations may not dip into — garbage collection
#: always needs landing room, or a nearly-full region deadlocks.
GC_RESERVE_BLOCKS = 2
#: ``RegionState.state_code`` of a FULL block.
_FULL = BLOCK_STATE_CODES[BlockState.FULL]


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

        # A victim scan reads the region's state column, whose slots run
        # in ascending block_id, so the allocator owns one whole region.
        self._blocks = flash.region_blocks(flash.block(block_ids[0]).is_slc)
        if [b.block_id for b in self._blocks] != self.block_ids:
            raise AllocationError(
                f"region {name!r}: block ids are not one whole flash region")
        self._state = self._blocks[0].region

    # -- pool state -----------------------------------------------------

    @property
    def free_blocks(self) -> int:
        """Number of blocks in the free pools."""
        return self._free_count

    @property
    def free_fraction(self) -> float:
        """Free-pool share of the region (drives the GC trigger)."""
        return self._free_count / self.total_blocks

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

    def _pop_free(self, stripe: int, level: int) -> Block | None:
        """Open the least-worn free block, preferring ``stripe``'s plane."""
        order = [stripe] + [s for s in range(self.stripes) if s != stripe]
        for s in order:
            heap = self._free[s]
            while heap:
                _, block_id = heapq.heappop(heap)
                block = self.flash.block(block_id)
                if block.state is BlockState.FREE:
                    block.open_as(level)
                    self._free_count -= 1
                    return block
                # Stale entry: the block was reopened through another path.
        return None

    # -- page allocation ---------------------------------------------------

    def alloc_page(self, level: int,
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
            block = self._pop_free(stripe, level)
            if block is None:
                return None
            self.active[(level, stripe)] = block
        return block, block.next_page

    # -- GC support ----------------------------------------------------------

    def victim_candidates(self) -> list[Block]:
        """Blocks eligible for collection: the FULL ones, in ascending
        ``block_id`` (the order ISR's float sums and every policy's
        lowest-id tie-break assume)."""
        blocks = self._blocks
        full = np.flatnonzero(self._state.state_code == _FULL)
        return [blocks[i] for i in full.tolist()]
