"""Grown-bad-block bookkeeping.

The table records which blocks are condemned (a program pulse failed on
them; they retire at their next erase), which have retired, and enforces
the per-region retirement budget: a region may lose at most
``max_retire_fraction`` of its blocks before further failures stop
retiring (a real drive would transition to read-only — the simulator
keeps the block in service instead of deadlocking its GC, and the
failure counters still record the event).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from ..nand.flash import FlashArray


class BadBlockTable:
    """Condemned and retired blocks, with per-region retirement caps."""

    def __init__(self, flash: FlashArray, max_retire_fraction: float):
        n_slc = len(flash.slc_block_ids)
        n_mlc = len(flash.mlc_block_ids)
        # A nonzero budget always admits at least one block per region,
        # so small simulated devices still exercise retirement.
        self._cap = {
            True: (max(1, int(n_slc * max_retire_fraction))
                   if max_retire_fraction > 0 else 0),
            False: (max(1, int(n_mlc * max_retire_fraction))
                    if max_retire_fraction > 0 else 0),
        }
        self._retired_in = {True: 0, False: 0}
        self._condemned: set[int] = set()
        #: Retired block ids in retirement order (diagnostics, tests).
        self.retired: list[int] = []

    def condemn(self, block_id: int) -> None:
        """Mark a block for retirement at its next erase."""
        self._condemned.add(block_id)

    def is_condemned(self, block_id: int) -> bool:
        """Whether a program failure already condemned this block."""
        return block_id in self._condemned

    def pardon(self, block_id: int) -> None:
        """Drop a condemnation (retirement budget exhausted)."""
        self._condemned.discard(block_id)

    def can_retire(self, slc: bool) -> bool:
        """Whether the region's retirement budget admits one more block."""
        return self._retired_in[slc] < self._cap[slc]

    def note_retired(self, block_id: int, slc: bool) -> None:
        """Record a retirement and clear any condemnation."""
        self._retired_in[slc] += 1
        self._condemned.discard(block_id)
        self.retired.append(block_id)
