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

from .mapping import SubpageMap
from .allocator import RegionAllocator
from .hotcold import block_isr, coldness_weight
from .victim import GreedyVictimPolicy, IsrVictimPolicy, VictimPolicy
from .gc import GarbageCollector
from .base import BaseFTL
from .baseline import BaselineFTL
from .mga import MGAFTL
from .delta import DeltaFTL

__all__ = [
    "SubpageMap",
    "RegionAllocator",
    "block_isr",
    "coldness_weight",
    "VictimPolicy",
    "GreedyVictimPolicy",
    "IsrVictimPolicy",
    "GarbageCollector",
    "BaseFTL",
    "BaselineFTL",
    "MGAFTL",
    "DeltaFTL",
]
