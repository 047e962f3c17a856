"""Flash cell operating modes.

A hybrid high-density SSD runs most blocks in their native multi-level mode
and a small region in SLC mode (one bit per cell).  SLC-mode blocks expose
half the pages of an MLC block built from the same word lines, but read,
program and endure erases much better (Section 1 of the paper).
"""

from __future__ import annotations

import enum


class CellMode(enum.Enum):
    """Operating mode of a block."""

    SLC = "slc"
    MLC = "mlc"

    @property
    def is_slc(self) -> bool:
        """True for the SLC-mode cache region."""
        return self is CellMode.SLC

    def pages_per_block(self, slc_pages: int, mlc_pages: int) -> int:
        """Select the page count for this mode from geometry settings."""
        return slc_pages if self is CellMode.SLC else mlc_pages
