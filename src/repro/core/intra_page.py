"""The intra-page update decision (Section 3.1, Algorithm 1 lines 6-9).

An update chunk qualifies for an in-page partial program when

1. *every* subpage of the chunk is currently mapped,
2. all of them live in the **same SLC-mode page** (IPU pages hold the data
   of a single request chunk, so updates find everything co-located),
3. the update *covers* the resident data: every currently-valid slot of
   the page belongs to the chunk being rewritten (a partial rewrite would
   leave live sibling subpages in the page, and the partial-program pass
   would disturb them — exactly what IPU exists to prevent),
4. the page has enough never-programmed slots left for the new version,
5. the page has program passes left under the manufacturer limit.

Programming the new version first invalidates the old slots, so the
in-page disturb of the pass lands exclusively on data that is already
obsolete — the paper's central observation.
"""

from __future__ import annotations

from typing import NamedTuple

from ..nand.block import Block, BlockState
from ..nand.geometry import PPA


class IntraPagePlan(NamedTuple):
    """A feasible in-page update: where the new version will go."""

    block_id: int
    page: int
    #: Free slots that will receive the new version (ascending).
    target_slots: tuple[int, ...]


def plan_intra_page_update(
    chunk_lsns: list[int],
    mappings: list[PPA | None],
    *,
    get_block,
    max_page_programs: int,
) -> IntraPagePlan | None:
    """Check conditions 1-4 and return the slot plan, or None.

    ``get_block`` resolves a block id to its :class:`Block`; the indirection
    keeps this module independent of :class:`~repro.nand.flash.FlashArray`.
    """
    nslots = len(chunk_lsns)
    if not nslots or nslots != len(mappings):
        return None
    if None in mappings:
        return None
    first = mappings[0]
    fblock = first.block
    fpage = first.page
    for m in mappings:
        if m.block != fblock or m.page != fpage:
            return None

    block: Block = get_block(fblock)
    if not block.is_slc:
        return None
    if block.state not in (BlockState.OPEN, BlockState.FULL):
        return None
    if block.pass_counts[fpage] >= max_page_programs:
        return None
    # Condition 3 without scanning the page: every mapping points at a
    # distinct currently-valid slot of the page, so the chunk covers the
    # resident data iff the page holds exactly that many valid subpages.
    if block.valid_mask[fpage].bit_count() != nslots:
        # Partial rewrite: live sibling data would absorb the disturb.
        return None
    free = block.free_slots_of_page(fpage)
    if len(free) < nslots:
        return None

    return IntraPagePlan(
        block_id=fblock,
        page=fpage,
        target_slots=tuple(free[:nslots]),
    )
