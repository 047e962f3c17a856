"""FTL framework and the three comparison schemes.

* :mod:`repro.ftl.base` — shared plumbing: the subpage map, the one write
  primitive (program, follow a fault remap, bind), read path, allocation,
  GC wiring, statistics.
* :mod:`repro.ftl.baseline` — *Baseline*: dynamic page-level FTL, no
  partial programming; each write chunk takes a fresh page, its subpages
  at their positional slots.
* :mod:`repro.ftl.mga` — *MGA* (Feng et al., DATE'17): subpage-granularity
  two-level mapping; small writes from different requests are packed into
  one SLC page with partial programming.
* :mod:`repro.ftl.delta` — *Delta* (Zhang et al., FAST'16): updates
  appended as compressed deltas into the free space of the page holding
  the originals.

The paper's own scheme lives in :mod:`repro.core`.
"""

from .. import lazy_exports

_EXPORTS = {
    "SubpageMap": ".mapping",
    "RegionAllocator": ".allocator",
    "coldness_weight": ".hotcold",
    "VictimPolicy": ".victim", "GreedyVictimPolicy": ".victim",
    "IsrVictimPolicy": ".victim",
    "GarbageCollector": ".gc",
    "BaseFTL": ".base",
    "BaselineFTL": ".baseline",
    "MGAFTL": ".mga",
    "DeltaFTL": ".delta",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
