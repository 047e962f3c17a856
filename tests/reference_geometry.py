"""Reference block-address arithmetic of :mod:`repro.nand.geometry`.

The module doc there fixes the hierarchy: consecutive block ids fill
one plane before the next, planes fill chips and chips fill channels.
The simulator derives a block's plane, chip and channel inline where it
needs them (``RegionAllocator``, ``ResourceSet``); these functions state
the same layout one step at a time, so tests can check those derivations
against it.
"""

from __future__ import annotations

from repro.errors import ConfigError
from repro.nand.geometry import Geometry

__all__ = ["channel_of", "chip_of", "plane_of"]


def plane_of(geometry: Geometry, block: int) -> int:
    """Plane hosting ``block``."""
    if not 0 <= block < geometry.total_blocks:
        raise ConfigError(
            f"block {block} out of range [0, {geometry.total_blocks})")
    return block // geometry.blocks_per_plane


def chip_of(geometry: Geometry, block: int) -> int:
    """Chip hosting ``block``."""
    return plane_of(geometry, block) // geometry.config.planes_per_chip


def channel_of(geometry: Geometry, block: int) -> int:
    """Channel hosting ``block``."""
    return chip_of(geometry, block) // geometry.config.chips_per_channel
