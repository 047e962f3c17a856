"""GC victim-selection policies.

* :class:`GreedyVictimPolicy` — the conventional policy (Baseline, MGA,
  and both schemes' high-density region): pick the block that frees the
  most space.
* :class:`GreedyPageVictimPolicy` — greedy on reclaimable *whole pages*,
  for schemes whose GC moves pages one-to-one without compaction.
* :class:`IsrVictimPolicy` — IPU's policy: pick the block with the largest
  invalid-subpage ratio including the coldness weight of Equation 2, so
  blocks full of cold valid data are preferred and their data gets sifted
  down the level hierarchy.

Every policy has one selection path, ``select(candidates, now)``, a
scan over the region's FULL blocks in ascending ``block_id`` order (see
:meth:`~repro.ftl.allocator.RegionAllocator.victim_candidates`).  The
property tests (``tests/test_victim_properties.py``) check it against
from-scratch reference scans.

**Tie-breaking rule (all policies):** among candidates with the same best
score, the lowest ``block_id`` wins, regardless of candidate iteration
order.

**Scan-cost accounting** is split into two channels so the speed of the
host's scan cannot distort the paper's Figure 12:

* ``scan_seconds`` — measured host wall time (:func:`time.perf_counter`),
  a nondeterministic diagnostic;
* ``scanned_blocks`` — the *modelled* cost of the scan the device
  firmware would perform: Figure 12 (:mod:`repro.experiments.fig12`)
  charges every candidate block examined a per-block constant (ISR pays
  more per block, it reads the stored 4-byte IS' record of Section
  4.4.1 on top of the invalid counter).  This count is deterministic and
  independent of how fast the simulator happens to evaluate the scan.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Protocol

from .hotcold import block_age_sum, block_coldness
from ..units import Ms

if TYPE_CHECKING:
    from ..nand.block import Block

#: Modelled firmware cost of examining one candidate in a greedy scan
#: (read one on-chip counter, one compare).
MODELLED_SCAN_NS_PER_BLOCK_GREEDY = 100.0
#: ISR additionally reads the stored 4-byte IS' record per block
#: (Section 4.4.1), modelled at 2.5x the greedy per-block cost.
MODELLED_SCAN_NS_PER_BLOCK_ISR = 250.0


class VictimPolicy(Protocol):
    """Selects one victim from fully-programmed candidate blocks."""

    #: Accumulated selection wall time (seconds) and scan count.
    scan_seconds: float
    scans: int
    #: Deterministic count of candidate blocks examined over all scans.
    scanned_blocks: int

    def select(self, candidates: list[Block], now: Ms) -> Block | None:
        """Return the victim, or None when no candidate is worth collecting."""
        ...  # pragma: no cover


class _ScanAccounting:
    """Shared wall-time + scanned-block bookkeeping."""

    def __init__(self):
        self.scan_seconds = 0.0
        self.scans = 0
        self.scanned_blocks = 0


class GreedyVictimPolicy(_ScanAccounting):
    """Pick the block with the most reclaimable subpages.

    Ties on the score are broken to the **lowest** ``block_id``, whatever
    order the candidates arrive in, so selection is a pure function of
    device state.
    """

    def select(self, candidates: list[Block], now: Ms) -> Block | None:
        start = time.perf_counter()
        best: Block | None = None
        best_score = 0
        for block in candidates:
            score = block.reclaimable_subpages
            if score > best_score or (score == best_score and best is not None
                                      and score > 0 and block.block_id < best.block_id):
                best = block
                best_score = score
        self.scans += 1
        self.scanned_blocks += len(candidates)
        self.scan_seconds += time.perf_counter() - start
        return best if best_score > 0 else None


class GreedyPageVictimPolicy(_ScanAccounting):
    """Pick the block that frees the most whole pages.

    The right greedy metric for schemes whose GC moves pages one-to-one
    without compaction (Baseline's positional layout, IPU's extent-grouped
    pages): a page with any valid slot costs a full destination page, so
    only fully-invalid (or never-programmed) pages actually free space.

    Ties are broken to the lowest ``block_id`` regardless of candidate
    iteration order.
    """

    def select(self, candidates: list[Block], now: Ms) -> Block | None:
        start = time.perf_counter()
        best: Block | None = None
        best_score = 0
        for block in candidates:
            score = block.pages - block.pages_with_valid
            if score > best_score or (score == best_score and best is not None
                                      and score > 0 and block.block_id < best.block_id):
                best = block
                best_score = score
        self.scans += 1
        self.scanned_blocks += len(candidates)
        self.scan_seconds += time.perf_counter() - start
        return best if best_score > 0 else None


class IsrVictimPolicy(_ScanAccounting):
    """Pick the block with the largest ISR (Equations 1 and 2).

    ``T`` is the region-wide mean age of valid subpages (see
    :mod:`repro.ftl.hotcold`).  Mirrors the paper's stored-IS' design
    (Section 4.4.1 keeps a 4-byte IS' record per SLC page): per-block age
    sums and coldness terms are cached and only recomputed when the
    block's content changed or the cached value is older than
    ``refresh_ms``, so a GC scan is one comparison per block instead of
    one Equation-2 evaluation per subpage.  (Equation 2 itself is
    evaluated as one vectorised ``np.exp`` over the block's subpages when
    a cache entry does need recomputing; batching *across* blocks would
    change summation grouping and is deliberately avoided to keep results
    byte-identical to the scalar reference.)

    Ties on the ISR score are broken to the lowest ``block_id`` regardless
    of candidate iteration order.
    """

    def __init__(self, refresh_ms: float = 100.0):
        super().__init__()
        self.refresh_ms = refresh_ms
        #: block_id -> (content_epoch, computed_at, age_sum, n_valid)
        self._age_cache: dict[int, tuple[int, float, float, int]] = {}
        #: block_id -> (content_epoch, computed_at, t_mean, coldness)
        self._cold_cache: dict[int, tuple[int, float, float, float]] = {}

    def _age_sum(self, block: Block, now: Ms) -> tuple[float, int]:
        cached = self._age_cache.get(block.block_id)
        if (cached is not None and cached[0] == block.content_epoch
                and now - cached[1] <= self.refresh_ms):
            epoch, at, age_sum, count = cached
            # Ages grow linearly with the clock: shift the cached sum.
            return age_sum + count * (now - at), count
        age_sum, count = block_age_sum(block, now)
        self._age_cache[block.block_id] = (block.content_epoch, now, age_sum, count)
        return age_sum, count

    def _coldness(self, block: Block, now: Ms, t_mean: float) -> float:
        cached = self._cold_cache.get(block.block_id)
        if (cached is not None and cached[0] == block.content_epoch
                and now - cached[1] <= self.refresh_ms
                and abs(t_mean - cached[2]) <= 0.25 * max(cached[2], 1e-9)):
            return cached[3]
        value = block_coldness(block, now, t_mean)
        self._cold_cache[block.block_id] = (block.content_epoch, now, t_mean, value)
        return value

    def select(self, candidates: list[Block], now: Ms) -> Block | None:
        start = time.perf_counter()
        total_age = 0.0
        total_count = 0
        for block in candidates:
            age_sum, count = self._age_sum(block, now)
            total_age += age_sum
            total_count += count
        t_mean = total_age / total_count if total_count else 0.0

        best: Block | None = None
        best_score = 0.0
        for block in candidates:
            score = (block.n_invalid
                     + self._coldness(block, now, t_mean)) / block.total_subpages
            if score > best_score or (score == best_score and best is not None
                                      and score > 0.0
                                      and block.block_id < best.block_id):
                best = block
                best_score = score
        self.scans += 1
        self.scanned_blocks += len(candidates)
        self.scan_seconds += time.perf_counter() - start
        return best if best_score > 0.0 else None
