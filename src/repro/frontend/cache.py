"""The coalescing write-back DRAM buffer.

A :class:`WriteBuffer` holds dirty 4 KiB subpages (keyed by LSN) between
the host and the FTL:

* a write to an LSN already buffered **merges** in place — the flash
  never sees the overwritten version;
* eviction takes the oldest dirty entry and **coalesces** it with its
  adjacent dirty neighbours into one contiguous span (capped at
  ``flush_span_subpages``), so destages reach the FTL subpage-aligned
  and sequential;
* occupancy is bounded by ``buffer_subpages``: an insert that would
  overflow first drains the buffer down to the flush watermark
  (**flush-on-pressure**), and entries dirty for longer than
  ``writeback_delay_ms`` are destaged by the periodic sweep;
* reads are split into buffer **hits** (served from DRAM) and misses
  (forwarded to the FTL).

Determinism contract: the buffer holds one insertion-ordered ``dict``
and nothing hash-ordered ever feeds an outcome.  Re-inserting on
overwrite keeps the dict ordered by dirty-age, so "oldest first" is the
head of the dict and every eviction decision is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

from .config import FrontendConfig
from ..units import Lsn, Ms, SubpageCount


@dataclass
class BufferStats:
    """Front-end counters (become ``SimulationResult`` fields)."""

    read_hits: int = 0          #: read subpages served from the buffer
    read_misses: int = 0        #: read subpages forwarded to the FTL
    merged_writes: int = 0      #: write subpages absorbed by overwrite
    coalesced_writes: int = 0   #: extra subpages riding a flush span
    flushes: int = 0            #: destage spans issued to the FTL
    flushed_subpages: int = 0   #: subpages destaged across all spans
    dropped_subpages: int = 0   #: dirty subpages lost to power loss
    peak_occupancy: int = 0     #: high-water mark of buffered subpages


class WriteBuffer:
    """LSN-indexed write-back buffer with adjacent-LSN coalescing."""

    def __init__(self, config: FrontendConfig):
        config.validate()
        self.capacity: SubpageCount = config.buffer_subpages
        #: Occupancy the pressure drain stops at (< capacity).
        self.watermark: SubpageCount = min(
            self.capacity - 1,
            int(config.flush_watermark * self.capacity))
        self.delay_ms: Ms = config.writeback_delay_ms
        self.span_limit: SubpageCount = config.flush_span_subpages
        self.stats = BufferStats()
        #: Dirty subpages, ordered oldest-first (overwrites re-insert).
        self._entries: dict[Lsn, Ms] = {}

    @property
    def occupancy(self) -> SubpageCount:
        """Number of dirty subpages currently buffered."""
        return len(self._entries)

    # -- host side ----------------------------------------------------------

    def write(self, lsns: "list[Lsn]", now: Ms) -> "list[list[Lsn]]":
        """Absorb a host write; returns the spans pressure flushed out.

        Each LSN lands in the buffer (merging with any dirty copy).  When
        an insert would exceed the capacity, the buffer first drains down
        to the watermark; the evicted spans are returned for the caller
        to destage through the FTL at ``now``.
        """
        spans: list[list[Lsn]] = []
        entries = self._entries
        for lsn in lsns:
            if lsn in entries:
                del entries[lsn]
                self.stats.merged_writes += 1
            elif len(entries) >= self.capacity:
                spans.extend(self._drain_to_watermark())
            entries[lsn] = now
        if len(entries) > self.stats.peak_occupancy:
            self.stats.peak_occupancy = len(entries)
        return spans

    def split_read(self, lsns: "list[Lsn]",
                   ) -> "tuple[list[Lsn], list[Lsn]]":
        """Partition a host read into ``(hits, misses)``, order preserved.

        Counter contract: over any run, ``read_hits + read_misses`` equals
        the total subpages read.  A read that touches no buffered subpage
        returns ``lsns`` itself as the misses.
        """
        entries = self._entries
        if not entries or entries.keys().isdisjoint(lsns):
            self.stats.read_misses += len(lsns)
            return [], lsns
        hits = [lsn for lsn in lsns if lsn in entries]
        misses = [lsn for lsn in lsns if lsn not in entries]
        self.stats.read_hits += len(hits)
        self.stats.read_misses += len(misses)
        return hits, misses

    # -- destage side -------------------------------------------------------

    def expire(self, now: Ms) -> "list[list[Lsn]]":
        """Spans whose head entry has been dirty past the writeback delay.

        The dict is ordered oldest-first, so the sweep stops at the first
        entry still inside its delay window.  Coalesced neighbours may be
        younger — riding along is the point of coalescing.
        """
        spans: list[list[Lsn]] = []
        entries = self._entries
        delay = self.delay_ms
        while entries:
            since = next(iter(entries.values()))
            if now - since < delay:
                break
            spans.append(self._evict_oldest())
        return spans

    def drain(self) -> "list[list[Lsn]]":
        """Destage everything (end of trace / explicit flush barrier)."""
        spans: list[list[Lsn]] = []
        while self._entries:
            spans.append(self._evict_oldest())
        return spans

    def drop_all(self) -> SubpageCount:
        """Power loss: dirty DRAM contents are gone, not destaged.

        Returns (and counts) the number of dropped subpages.  Entries
        already handed out by a previous flush are on flash and subject
        to the ordinary torn-page recovery — they are not double-counted
        here, so a buffered write is either replayed from flash or
        dropped with the buffer, never duplicated.
        """
        dropped = len(self._entries)
        self._entries.clear()
        self.stats.dropped_subpages += dropped
        return dropped

    # -- eviction internals --------------------------------------------------

    def _drain_to_watermark(self) -> "list[list[Lsn]]":
        spans: list[list[Lsn]] = []
        while len(self._entries) > self.watermark:
            spans.append(self._evict_oldest())
        return spans

    def _evict_oldest(self) -> "list[Lsn]":
        """Evict the oldest dirty subpage plus its adjacent dirty
        neighbours as one contiguous, subpage-aligned span."""
        entries = self._entries
        seed = next(iter(entries))
        lo = hi = seed
        limit = self.span_limit
        while hi - lo + 1 < limit and lo - 1 in entries:
            lo -= 1
        while hi - lo + 1 < limit and hi + 1 in entries:
            hi += 1
        span = list(range(lo, hi + 1))
        for lsn in span:
            del entries[lsn]
        self.stats.flushes += 1
        self.stats.flushed_subpages += len(span)
        self.stats.coalesced_writes += len(span) - 1
        return span
