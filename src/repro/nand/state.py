"""Structure-of-arrays backing store for flash block/subpage state.

One :class:`RegionState` owns every per-slot, per-page and per-block
array of a region (the SLC-mode cache or the high-density region) as
*flat* block-major numpy arrays; each
:class:`~repro.nand.block.Block` is a thin view over one block-sized
stripe of them.  Keeping the whole region contiguous is what makes
batched kernels possible — a GC drain or a flush span can price every
subpage it touches with one array expression instead of one python call
per slot — while the blocks keep mutating their own stripe through
scalar item stores, which profiling shows beat fancy indexing by a wide
margin at subpage (``spp`` = 4) granularity.

Layout, for a region of ``n_blocks`` blocks × ``pages`` pages × ``spp``
subpage slots (``block_stride = pages * spp``)::

    per-slot   (n_blocks * pages * spp,)   programmed  valid  slot_lsn
                                           slot_time   slot_program_time
                                           disturb_in  disturb_nb
    per-page   (n_blocks * pages,)         program_count  page_updated
    per-block  (n_blocks,)                 erase_count  state_code  level

    flat slot index  = block_slot * block_stride + page * spp + slot
    flat page index  = block_slot * pages + page

``block_slot`` is the block's position inside its region (block ids are
striped across planes, so they are not contiguous per region, but slots
follow ascending block id).  ``state_code`` doubles as the GC candidate
set: a region's victim scan takes its FULL slots with one
``np.flatnonzero``, already in ascending block id order.

dtype choices and bit-identity: ``slot_time``/``slot_program_time`` are
``float64`` — the same IEEE doubles python floats are, so storing a
python ``now`` and reading it back round-trips exactly.  Disturb
counters are ``int64``: integer adds are exact, and the RBER kernel
converts them to ``float64`` precisely (they stay far below 2**53).
``slot_lsn`` is ``int64`` with :data:`NO_LSN` = -1 as the never-written
sentinel; ``program_count`` is ``uint8`` (the manufacturer pass limit is
single digits); ``state_code``/``level`` are small ints with -1 as the
"no level" sentinel.  The SLC-only arrays are ``None`` for the
high-density region — native MLC pages are programmed exactly once, so
their reliability is the base RBER curve alone.

The mask tables support the hot-path trick the blocks use: alongside the
authoritative bool arrays, each block keeps per-page *python int*
bitmasks of its programmed/valid slots, so membership tests, slot
enumeration and disturb targeting are plain integer ops.  The tables
convert a mask to its ascending slot tuple (or its popcount) in one
list index.  ``Block.verify_array_state`` cross-checks the masks against
the arrays so they can never drift silently.
"""

from __future__ import annotations

import numpy as np

from ..units import LsnArray, MsArray, PeCyclesArray

#: Sentinel stored in ``slot_lsn`` for a slot that never held data.
NO_LSN: int = -1


class SlotMaskTables:
    """Precomputed lookups from a subpage bitmask to slot tuples.

    Built once per distinct ``spp`` (tiny: ``2**spp`` entries) and shared
    by every region and block with that geometry.
    """

    __slots__ = ("spp", "full_mask", "set_slots", "popcount")

    def __init__(self, spp: int):
        self.spp = spp
        #: Mask with every slot bit set.
        self.full_mask = (1 << spp) - 1
        #: ``set_slots[m]`` — ascending tuple of the slots set in ``m``.
        self.set_slots = tuple(
            tuple(s for s in range(spp) if mask >> s & 1)
            for mask in range(1 << spp))
        #: ``popcount[m]`` — number of slots set in ``m``.
        self.popcount = tuple(len(t) for t in self.set_slots)


_TABLES: dict[int, SlotMaskTables] = {}


def mask_tables(spp: int) -> SlotMaskTables:
    """The shared :class:`SlotMaskTables` for one ``spp``."""
    tables = _TABLES.get(spp)
    if tables is None:
        tables = _TABLES[spp] = SlotMaskTables(spp)
    return tables


class RegionState:
    """Flat structure-of-arrays state for one region's blocks.

    Mutated only through :class:`~repro.nand.block.Block` methods (the
    S002 lint rule confines writes to ``nand/block.py``/``nand/state.py``
    so each block's python mirrors — per-page masks and counters, and the
    ``state_code`` victim scans read — move in step with these arrays).
    """

    __slots__ = (
        "n_blocks", "pages", "spp", "slc", "block_stride",
        "programmed", "valid", "slot_lsn",
        "slot_time", "slot_program_time", "disturb_in", "disturb_nb",
        "program_count", "page_updated",
        "erase_count", "state_code", "level",
        "tables",
    )

    # Unit vocabulary for the dimensioned columns (bare annotations are
    # ``__slots__``-compatible; the unit checker reads the element
    # dimension through them — see ``repro.units``).
    slot_lsn: LsnArray
    slot_time: MsArray
    slot_program_time: MsArray
    erase_count: PeCyclesArray

    def __init__(self, n_blocks: int, pages: int, spp: int, slc: bool):
        self.n_blocks = n_blocks
        self.pages = pages
        self.spp = spp
        self.slc = slc
        self.block_stride = pages * spp
        n_slots = n_blocks * pages * spp
        n_pages = n_blocks * pages

        self.programmed = np.zeros(n_slots, dtype=bool)
        self.valid = np.zeros(n_slots, dtype=bool)
        self.slot_lsn = np.full(n_slots, NO_LSN, dtype=np.int64)
        self.program_count = np.zeros(n_pages, dtype=np.uint8)
        if slc:
            self.slot_time = np.zeros(n_slots, dtype=np.float64)
            self.slot_program_time = np.zeros(n_slots, dtype=np.float64)
            self.disturb_in = np.zeros(n_slots, dtype=np.int64)
            self.disturb_nb = np.zeros(n_slots, dtype=np.int64)
            self.page_updated = np.zeros(n_pages, dtype=bool)
        else:
            self.slot_time = None
            self.slot_program_time = None
            self.disturb_in = None
            self.disturb_nb = None
            self.page_updated = None
        self.erase_count = np.zeros(n_blocks, dtype=np.int64)
        #: ``BLOCK_STATE_CODES`` of each block's lifecycle state (FREE=0).
        self.state_code = np.zeros(n_blocks, dtype=np.uint8)
        #: Block-level label; -1 when the block carries none.
        self.level = np.full(n_blocks, -1, dtype=np.int16)
        self.tables = mask_tables(spp)
