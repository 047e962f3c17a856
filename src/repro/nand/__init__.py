"""NAND flash array substrate.

Models the physical hierarchy (channel / chip / plane / block / page /
subpage), SLC-mode versus native MLC blocks, sequential page programming,
**partial programming** of SLC-mode pages (up to the manufacturer limit),
program-disturb bookkeeping (in-page and neighbouring-page), per-block P/E
wear, and erase.
"""

from .. import lazy_exports

_EXPORTS = {
    "CellMode": ".cell",
    "Geometry": ".geometry", "PPA": ".geometry",
    "Block": ".block", "BlockState": ".block",
    "FlashArray": ".flash", "ProgramResult": ".flash",
    "WearTracker": ".wear",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
