"""Structure-of-arrays backing store for flash block/subpage state.

One :class:`RegionState` owns the per-slot, per-page and per-block
arrays of a region (the SLC-mode cache or the high-density region) as
*flat* block-major numpy arrays; each
:class:`~repro.nand.block.Block` owns one block-sized stripe of them.
Keeping the whole region contiguous is what makes batched kernels
possible — a GC drain or a flush span can price every subpage it
touches with one array expression instead of one python call per slot
— while the blocks keep mutating their own stripe through scalar item
stores, which profiling shows beat fancy indexing by a wide margin at
subpage (``spp`` = 4) granularity.

Layout, for a region of ``n_blocks`` blocks × ``pages`` pages × ``spp``
subpage slots (``block_stride = pages * spp``)::

    per-slot   (n_blocks * pages * spp,)   valid  slot_lsn
                                           slot_time   slot_program_time
                                           disturb_in  disturb_nb
    per-page   (n_blocks * pages,)         page_updated
    per-block  (n_blocks,)                 state_code

    flat slot index  = block_slot * block_stride + page * spp + slot
    flat page index  = block_slot * pages + page

``block_slot`` is the block's position inside its region (block ids are
striped across planes, so they are not contiguous per region, but slots
follow ascending block id).  ``state_code`` doubles as the GC candidate
set: a region's victim scan takes its FULL slots with one
``np.flatnonzero``, already in ascending block id order.

A column lives here only if something reads it as an array or by flat
index (Equation 2, ``read_list``/``read_span``, power-loss recovery, the
relocation paths, the victim scan); programmed slots, pass counts, erase
counts and levels live only on the :class:`~repro.nand.block.Block`.

dtype choices and bit-identity: ``slot_time``/``slot_program_time`` are
``float64`` — the same IEEE doubles python floats are, so storing a
python ``now`` and reading it back round-trips exactly.  Disturb
counters are ``int64``: integer adds are exact, and the RBER kernel
converts them to ``float64`` precisely (they stay far below 2**53).
``slot_lsn`` is ``int64`` with no never-written sentinel: a block's
``prog_mask`` is the one record of which slots hold an LSN, and a slot
it does not mark holds an unspecified value (zero until first written,
a stale LSN after an erase).  ``state_code`` is a small int.  The
SLC-only arrays are ``None`` for the high-density region — native MLC
pages are programmed exactly once, so their reliability is the base
RBER curve alone.

Every column is allocated with ``np.zeros``, which the OS backs with
memory only once a page of it is written: a region costs host memory
for the blocks a replay has programmed, not for its capacity.

The mask tables support the hot-path trick the blocks use: each opened
block keeps per-page *python int* bitmasks of its programmed/valid
slots, so membership tests, slot enumeration, per-page counts and
disturb targeting are plain integer ops.  The tables convert a mask to its
ascending slot tuple (or its popcount) in one list index.
``Block.verify_array_state`` cross-checks the valid bitmasks against the
``valid`` column so the two copies can never drift silently.
"""

from __future__ import annotations

import numpy as np

from ..units import LsnArray, MsArray


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
    so each block's python mirrors — the valid bitmasks and occupancy
    counters, and the lifecycle ``state`` — move in step with ``valid``
    and ``state_code``).
    """

    __slots__ = (
        "n_blocks", "pages", "spp", "slc", "block_stride",
        "valid", "slot_lsn",
        "slot_time", "slot_program_time", "disturb_in", "disturb_nb",
        "page_updated", "state_code",
        "tables",
    )

    # Unit vocabulary for the dimensioned columns (bare annotations are
    # ``__slots__``-compatible; the unit checker reads the element
    # dimension through them — see ``repro.units``).
    slot_lsn: LsnArray
    slot_time: MsArray
    slot_program_time: MsArray

    def __init__(self, n_blocks: int, pages: int, spp: int, slc: bool):
        self.n_blocks = n_blocks
        self.pages = pages
        self.spp = spp
        self.slc = slc
        self.block_stride = pages * spp
        n_slots = n_blocks * pages * spp
        n_pages = n_blocks * pages

        self.valid = np.zeros(n_slots, dtype=bool)
        self.slot_lsn = np.zeros(n_slots, dtype=np.int64)
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
        #: ``BLOCK_STATE_CODES`` of each block's lifecycle state (FREE=0).
        self.state_code = np.zeros(n_blocks, dtype=np.uint8)
        self.tables = mask_tables(spp)
