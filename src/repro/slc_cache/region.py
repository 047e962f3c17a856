"""Read-only view over the SLC-mode cache of a running FTL."""

from __future__ import annotations

from dataclasses import dataclass

from ..ftl.levels import SLC_LEVELS, BlockLevel
from ..nand.block import BlockState


@dataclass(frozen=True)
class LevelStats:
    """Occupancy of one block level inside the cache."""

    level: BlockLevel
    blocks: int
    valid_subpages: int
    invalid_subpages: int
    programmed_subpages: int
    updated_pages: int


class SlcCacheView:
    """Snapshot helper over an FTL's SLC region."""

    def __init__(self, ftl):
        self.ftl = ftl

    def level_stats(self) -> dict[BlockLevel, LevelStats]:
        """Per-level occupancy of the cache right now."""
        acc: dict[BlockLevel, dict[str, int]] = {
            level: {"blocks": 0, "valid": 0, "invalid": 0,
                    "programmed": 0, "updated_pages": 0}
            for level in SLC_LEVELS
        }
        for block in self.ftl.flash.region_blocks(True):
            if block.state is BlockState.FREE or block.level is None:
                continue
            level = BlockLevel(block.level)
            if level not in acc:
                continue
            entry = acc[level]
            entry["blocks"] += 1
            entry["valid"] += block.n_valid
            entry["invalid"] += block.n_invalid
            entry["programmed"] += block.n_programmed
            entry["updated_pages"] += int(block.page_updated.sum())
        return {
            level: LevelStats(
                level=level,
                blocks=e["blocks"],
                valid_subpages=e["valid"],
                invalid_subpages=e["invalid"],
                programmed_subpages=e["programmed"],
                updated_pages=e["updated_pages"],
            )
            for level, e in acc.items()
        }

    @property
    def free_blocks(self) -> int:
        """Blocks available for allocation."""
        return self.ftl.slc_alloc.free_blocks

    def summary_rows(self) -> list[dict]:
        """Rows for :func:`repro.metrics.report.format_table`."""
        rows = []
        for level, stats in self.level_stats().items():
            rows.append({
                "level": level.name,
                "blocks": stats.blocks,
                "valid subpages": stats.valid_subpages,
                "invalid subpages": stats.invalid_subpages,
                "updated pages": stats.updated_pages,
            })
        rows.append({
            "level": "(free)",
            "blocks": self.free_blocks,
            "valid subpages": 0,
            "invalid subpages": 0,
            "updated pages": 0,
        })
        return rows
