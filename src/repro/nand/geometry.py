"""Physical address arithmetic.

Blocks are identified by a flat global index.  The mapping to the
channel/chip/plane hierarchy is fixed: consecutive block indices fill one
plane before moving to the next, planes fill chips, chips fill channels::

    plane(b)   = b // blocks_per_plane
    chip(b)    = plane(b) // planes_per_chip
    channel(b) = chip(b) // chips_per_channel

A physical subpage address (:class:`PPA`) is ``(block, page, slot)`` where
``slot`` indexes the 4 KiB subpage inside the 16 KiB page.
"""

from __future__ import annotations

from typing import NamedTuple

from ..config import GeometryConfig
from ..errors import ConfigError
from ..units import Bytes, Lpn, Lsn


class PPA(NamedTuple):
    """Physical address of one subpage."""

    block: int
    page: int
    slot: int


class Geometry:
    """Address arithmetic over a validated :class:`GeometryConfig`."""

    def __init__(self, config: GeometryConfig):
        config.validate()
        self.config = config
        self.channels = config.channels
        self.chips = config.chips
        self.planes = config.planes
        self.total_blocks = config.total_blocks
        self.blocks_per_plane = config.blocks_per_plane
        self.subpages_per_page = config.subpages_per_page
        self.page_size = config.page_size
        self.subpage_size = config.subpage_size
        self.slc_pages_per_block = config.slc_pages_per_block
        self.mlc_pages_per_block = config.mlc_pages_per_block

    # -- hierarchy -----------------------------------------------------

    def plane_of(self, block: int) -> int:
        """Plane hosting ``block``."""
        self._check_block(block)
        return block // self.blocks_per_plane

    def chip_of(self, block: int) -> int:
        """Chip hosting ``block``."""
        return self.plane_of(block) // self.config.planes_per_chip

    def channel_of(self, block: int) -> int:
        """Channel hosting ``block``."""
        return self.chip_of(block) // self.config.chips_per_channel

    # -- logical space -------------------------------------------------

    def lpn_of_lsn(self, lsn: Lsn) -> Lpn:
        """Logical page containing logical subpage ``lsn``."""
        if lsn < 0:
            raise ConfigError(f"negative LSN {lsn}")
        return lsn // self.subpages_per_page

    def byte_range_to_lsns(self, offset: Bytes, length: Bytes) -> range:
        """Logical subpages overlapped by the byte extent ``[offset, offset+length)``."""
        if offset < 0 or length <= 0:
            raise ConfigError(f"invalid byte extent offset={offset} length={length}")
        first = offset // self.subpage_size
        last = (offset + length - 1) // self.subpage_size
        return range(first, last + 1)

    # -- capacity ------------------------------------------------------

    def pages_per_block(self, slc: bool) -> int:
        """Page count of a block in the given mode."""
        return self.slc_pages_per_block if slc else self.mlc_pages_per_block

    # -- internal ------------------------------------------------------

    def _check_block(self, block: int) -> None:
        if not 0 <= block < self.total_blocks:
            raise ConfigError(f"block {block} out of range [0, {self.total_blocks})")
