"""Demand-paged address translation (a DFTL-style cached mapping table).

The paper repeatedly notes that partial programming "results in higher
address translation latency and needs more memory for the mapping table"
(Section 1) and counts IPU's freedom from a second-level table among its
contributions.  The evaluation itself does not quantify translation
latency, so this model is an **optional extension** (off by default):

* the full mapping table lives in flash, split into *translation pages*
  of ``entries_per_page`` entries;
* the controller caches recently used translation pages in an LRU-managed
  SRAM of ``cache_pages`` slots (the CMT of DFTL, Gupta et al.);
* a lookup outside the cache costs one flash read of a translation page
  (and, for a dirtied evictee, one program), which the simulator prices
  like any other MLC read/program.

Scheme coupling: the table a scheme must page in is exactly the mapping
structure :mod:`repro.metrics.memory` sizes — Baseline/IPU one entry per
logical page, MGA additionally one entry per SLC subpage — so the same
byte counts that give Figure 11's memory ordering also drive the miss
rates here.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass

from ..config import TranslationConfig
from ..errors import ConfigError

__all__ = ["TranslationConfig", "TranslationStats", "CachedMappingTable"]


@dataclass
class TranslationStats:
    """Hit/miss accounting."""

    lookups: int = 0
    hits: int = 0
    misses: int = 0
    writebacks: int = 0

    @property
    def hit_ratio(self) -> float:
        """Fraction of lookups served from the cached pages."""
        return self.hits / self.lookups if self.lookups else 1.0


class CachedMappingTable:
    """LRU cache of translation pages.

    Pure bookkeeping: callers translate a logical key to a translation
    page id and ask :meth:`access`; the returned ``(miss, writeback)``
    tells the FTL which extra flash operations to charge.
    """

    def __init__(self, config: TranslationConfig):
        config.validate()
        self.config = config
        self._lru: OrderedDict[int, bool] = OrderedDict()  # page -> dirty
        self.stats = TranslationStats()

    def page_of(self, key: int) -> int:
        """Translation page holding the entry for ``key``."""
        if key < 0:
            raise ConfigError(f"negative translation key {key}")
        return key // self.config.entries_per_page

    def access(self, key: int, dirty: bool = False) -> tuple[bool, bool]:
        """Touch the entry for ``key``.

        Returns ``(miss, writeback)``: whether the translation page had to
        be fetched from flash, and whether fetching it evicted a dirty
        page that must be written back first.
        """
        page = self.page_of(key)
        self.stats.lookups += 1
        if page in self._lru:
            self.stats.hits += 1
            self._lru[page] = self._lru[page] or dirty
            self._lru.move_to_end(page)
            return False, False

        self.stats.misses += 1
        writeback = False
        if len(self._lru) >= self.config.cache_pages:
            _, evicted_dirty = self._lru.popitem(last=False)
            if evicted_dirty:
                writeback = True
                self.stats.writebacks += 1
        self._lru[page] = dirty
        return True, writeback

    def flush(self) -> int:
        """Drop everything; returns the number of dirty pages flushed."""
        dirty = sum(1 for d in self._lru.values() if d)
        self._lru.clear()
        return dirty
