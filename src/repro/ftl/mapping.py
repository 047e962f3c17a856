"""Logical-to-physical mapping table.

:class:`SubpageMap` — LSN -> (block, page, slot) — is the one table every
scheme keeps: :class:`~repro.ftl.base.BaseFTL` owns it, and its write
primitive :meth:`~repro.ftl.base.BaseFTL.place` does every binding.
Subpage granularity covers each scheme's layout: Baseline's positional
slots (logical subpage ``k`` of an LPN in slot ``k``), MGA's
cross-request packing, and IPU's and Delta's one-chunk-per-page layout.

The table counts its own entries so the memory-overhead experiment
(Figure 11) can be driven by real occupancy; the byte-cost *model* per
scheme lives in :mod:`repro.metrics.memory`.
"""

from __future__ import annotations

from ..errors import MappingError
from ..nand.geometry import PPA
from ..units import Lsn


class SubpageMap:
    """Subpage-level mapping: LSN -> :class:`PPA`."""

    def __init__(self):
        self._map: dict[Lsn, PPA] = {}
        # Bind the lookup straight to dict.get: the method body below is
        # documentation; the instance attribute skips one Python frame on
        # the hottest call in the FTL.
        self.lookup = self._map.get

    def lookup(self, lsn: Lsn) -> PPA | None:
        """Physical subpage of ``lsn``, or None if unmapped."""
        return self._map.get(lsn)

    def bind(self, lsn: Lsn, ppa: PPA) -> None:
        """Map ``lsn`` to a physical subpage."""
        if lsn < 0:
            raise MappingError(f"negative LSN {lsn}")
        self._map[lsn] = ppa

    def unbind(self, lsn: Lsn) -> None:
        """Drop the binding of ``lsn``."""
        if lsn not in self._map:
            raise MappingError(f"LSN {lsn} not mapped")
        del self._map[lsn]

    def __len__(self) -> int:
        return len(self._map)

    def __contains__(self, lsn: Lsn) -> bool:
        return lsn in self._map

    def items(self):
        """Iterate ``(lsn, ppa)`` bindings."""
        return self._map.items()
