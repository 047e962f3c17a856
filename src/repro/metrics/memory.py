"""Mapping-table memory model (Section 4.4.1, Figure 11).

The model follows the paper's own arithmetic:

* **Baseline** — a dynamic page-level table: one 4-byte physical-page
  entry per logical page of the device.
* **MGA** — the page-level table plus a second-level table recording the
  subpage composition of every SLC-mode page: one (LSN -> slot) entry of
  8 bytes per SLC subpage (4B logical key + 4B location/valid word).
* **IPU** — the page-level table plus one byte per SLC page recording
  which in-page offset holds the live version (the paper's "which part of
  subpage corresponds to the latest version"), plus the 2-bit block-level
  labels (the paper's 820 B at full scale).

Separately-reported metadata (not part of Figure 11's mapping size, but
quoted in Section 4.4.1): the 4-byte IS' bookkeeping per SLC page the ISR
policy needs (819.2 KB at full scale).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import SSDConfig
from ..errors import ExperimentError

#: Bytes per first-level (page-map) entry.
PAGE_ENTRY_BYTES = 4
#: Bytes per MGA second-level subpage entry.
SUBPAGE_ENTRY_BYTES = 8
#: Bytes per IPU per-page live-offset record.
IPU_OFFSET_BYTES = 1
#: Bits per IPU block-level label.
LEVEL_LABEL_BITS = 2
#: Bytes per IS' access-time record per SLC page.
ISR_RECORD_BYTES = 4


@dataclass(frozen=True)
class MappingBreakdown:
    """Byte-level decomposition of one scheme's mapping structures."""

    scheme: str
    page_table_bytes: int
    second_level_bytes: int
    label_bytes: int
    metadata_bytes: int

    @property
    def mapping_bytes(self) -> int:
        """Total mapping-table size (the Figure 11 quantity)."""
        return self.page_table_bytes + self.second_level_bytes + self.label_bytes

    def normalized_to(self, baseline: "MappingBreakdown") -> float:
        """Mapping size relative to the Baseline scheme."""
        return self.mapping_bytes / baseline.mapping_bytes


def _logical_pages(config: SSDConfig) -> int:
    return config.capacity_bytes // config.geometry.page_size


def _slc_pages(config: SSDConfig) -> int:
    return config.slc_blocks * config.geometry.slc_pages_per_block


def mapping_breakdown(scheme: str, config: SSDConfig) -> MappingBreakdown:
    """Mapping memory of ``scheme`` under ``config``."""
    config.validate()
    pages = _logical_pages(config)
    slc_pages = _slc_pages(config)
    slc_subpages = slc_pages * config.geometry.subpages_per_page
    page_table = pages * PAGE_ENTRY_BYTES

    if scheme == "baseline":
        return MappingBreakdown("baseline", page_table, 0, 0, 0)
    if scheme == "mga":
        return MappingBreakdown(
            "mga", page_table, slc_subpages * SUBPAGE_ENTRY_BYTES, 0, 0)
    if scheme == "delta":
        # Page map plus a per-SLC-page delta record (chain length and
        # packed-bytes cursor; Zhang et al. keep comparable state).
        return MappingBreakdown(
            "delta", page_table, slc_pages * 2 * IPU_OFFSET_BYTES, 0, 0)
    if scheme == "ipu":
        label_bytes = -(-config.slc_blocks * LEVEL_LABEL_BITS // 8)
        return MappingBreakdown(
            "ipu", page_table, slc_pages * IPU_OFFSET_BYTES, label_bytes,
            metadata_bytes=slc_pages * ISR_RECORD_BYTES)
    raise ExperimentError(f"unknown scheme {scheme!r}")
