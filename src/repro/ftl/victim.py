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

Every policy shares one selection path,
:meth:`VictimPolicy.select`, a scan over the region's FULL blocks in
ascending ``block_id`` order (see
:meth:`~repro.ftl.allocator.RegionAllocator.victim_candidates`); a policy
supplies only each candidate's score.  The property tests
(``tests/test_victim_properties.py``) check it against from-scratch
reference scans.

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
from typing import TYPE_CHECKING

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


class VictimPolicy:
    """Selects one victim from fully-programmed candidate blocks.

    A policy supplies only :meth:`scores`; the one :meth:`select` picks
    the best positive score (lowest ``block_id`` on a tie) and keeps the
    scan accounting.
    """

    def __init__(self) -> None:
        #: Accumulated selection wall time (seconds) and scan count.
        self.scan_seconds = 0.0
        self.scans = 0
        #: Deterministic count of candidate blocks examined over all scans.
        self.scanned_blocks = 0

    def scores(self, candidates: list[Block], now: Ms) -> list[float]:
        """One score per candidate, in candidate order.

        Scores read block attributes, not the ``total_subpages``
        property: a property call per candidate doubles a greedy scan's
        cost.
        """
        raise NotImplementedError

    def select(self, candidates: list[Block], now: Ms) -> Block | None:
        """Return the victim, or None when no candidate is worth collecting."""
        start = time.perf_counter()
        best: Block | None = None
        best_score = 0.0
        for block, score in zip(candidates, self.scores(candidates, now)):
            # A chosen block always scored above zero, so a tie with it
            # is a tie on a positive score.
            if score > best_score or (best is not None and score == best_score
                                      and block.block_id < best.block_id):
                best = block
                best_score = score
        self.scans += 1
        self.scanned_blocks += len(candidates)
        self.scan_seconds += time.perf_counter() - start
        return best


class GreedyVictimPolicy(VictimPolicy):
    """Pick the block with the most reclaimable subpages."""

    def scores(self, candidates: list[Block], now: Ms) -> list[float]:
        return [b.pages * b.spp - b.n_valid for b in candidates]


class GreedyPageVictimPolicy(VictimPolicy):
    """Pick the block that frees the most whole pages.

    The right greedy metric for schemes whose GC moves pages one-to-one
    without compaction (Baseline's positional layout, IPU's extent-grouped
    pages): a page with any valid slot costs a full destination page, so
    only fully-invalid (or never-programmed) pages actually free space.
    """

    def scores(self, candidates: list[Block], now: Ms) -> list[float]:
        return [b.pages - b.pages_with_valid for b in candidates]


class IsrVictimPolicy(VictimPolicy):
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

    def scores(self, candidates: list[Block], now: Ms) -> list[float]:
        age_sum = self._age_sum
        total_age = 0.0
        total_count = 0
        # One addition at a time, left to right: ``sum()`` compensates
        # float sums from Python 3.12 on, which would move ``T``.
        for block_age, count in [age_sum(b, now) for b in candidates]:
            total_age += block_age
            total_count += count
        t_mean = total_age / total_count if total_count else 0.0
        coldness = self._coldness
        return [(b.n_invalid + coldness(b, now, t_mean)) / (b.pages * b.spp)
                for b in candidates]
