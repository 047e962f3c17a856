"""Simulator configuration (Table 2 of the paper) and scaling presets.

The paper's experimental settings (Table 2)::

    Block number    65536        SLC read time   0.025 ms
    SLC mode ratio  5%           MLC read time   0.05  ms
    SLC/MLC Page    64/128       ECC min time    0.0005 ms
    Page size       16KB         ECC max time    0.0968 ms
    GC threshold    5%           SLC write time  0.3 ms
    Wear-leveling   static       MLC write time  0.9 ms
    FTL scheme      Page         Erase time      10 ms

A full-scale pure-Python replay of multi-million-request traces is slow, so
experiments run at a :class:`ScaleSpec`-selected scale; ``paper`` scale keeps
the original 65536 blocks.  All reported metrics are ratios or averages that
are stable under proportional scaling of the device and the working set.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .record import Record
from .units import KIB, Bytes

__all__ = [
    "GeometryConfig",
    "TimingConfig",
    "ReliabilityConfig",
    "CacheConfig",
    "TranslationConfig",
    "SSDConfig",
    "ScaleSpec",
    "SCALES",
    "paper_config",
    "scaled_config",
]


@dataclass(frozen=True)
class GeometryConfig(Record):
    """Physical organisation of the flash array.

    The hierarchy is ``channel -> chip -> plane -> block -> page ->
    subpage``.  ``total_blocks`` is distributed evenly over the planes;
    remaining fields follow Table 2.
    """

    channels: int = 8
    chips_per_channel: int = 2
    planes_per_chip: int = 2
    total_blocks: int = 65536
    slc_pages_per_block: int = 64
    mlc_pages_per_block: int = 128
    page_size: Bytes = 16 * KIB
    subpage_size: Bytes = 4 * KIB

    @property
    def chips(self) -> int:
        """Total chip count."""
        return self.channels * self.chips_per_channel

    @property
    def planes(self) -> int:
        """Total plane count."""
        return self.chips * self.planes_per_chip

    @property
    def blocks_per_plane(self) -> int:
        """Blocks hosted by each plane."""
        return self.total_blocks // self.planes

    @property
    def subpages_per_page(self) -> int:
        """Number of 4 KiB subpages in one physical page."""
        return self.page_size // self.subpage_size

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent geometry."""
        if min(self.channels, self.chips_per_channel, self.planes_per_chip) < 1:
            raise ConfigError("channel/chip/plane counts must be >= 1")
        if self.total_blocks < self.planes:
            raise ConfigError(
                f"total_blocks={self.total_blocks} smaller than plane count {self.planes}"
            )
        if self.total_blocks % self.planes != 0:
            raise ConfigError(
                f"total_blocks={self.total_blocks} not divisible by planes={self.planes}"
            )
        if self.page_size % self.subpage_size != 0:
            raise ConfigError("page_size must be a multiple of subpage_size")
        if self.subpages_per_page < 1:
            raise ConfigError("page must contain at least one subpage")
        if self.slc_pages_per_block < 1 or self.mlc_pages_per_block < 1:
            raise ConfigError("pages per block must be >= 1")
        if self.mlc_pages_per_block < self.slc_pages_per_block:
            raise ConfigError("MLC blocks must hold at least as many pages as SLC-mode")


@dataclass(frozen=True)
class TimingConfig(Record):
    """Operation latencies in milliseconds (Table 2)."""

    slc_read_ms: float = 0.025
    mlc_read_ms: float = 0.05
    slc_write_ms: float = 0.3
    mlc_write_ms: float = 0.9
    erase_ms: float = 10.0
    ecc_min_ms: float = 0.0005
    ecc_max_ms: float = 0.0968
    #: Channel transfer time for one 4 KiB subpage (~100 MB/s ONFI bus,
    #: consistent with the large-page device generation Table 2 models).
    transfer_ms_per_subpage: float = 0.04

    def validate(self) -> None:
        """Raise :class:`ConfigError` on non-physical latencies."""
        values = {
            "slc_read_ms": self.slc_read_ms,
            "mlc_read_ms": self.mlc_read_ms,
            "slc_write_ms": self.slc_write_ms,
            "mlc_write_ms": self.mlc_write_ms,
            "erase_ms": self.erase_ms,
            "transfer_ms_per_subpage": self.transfer_ms_per_subpage,
        }
        for name, value in values.items():
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if self.ecc_min_ms < 0 or self.ecc_max_ms < self.ecc_min_ms:
            raise ConfigError("require 0 <= ecc_min_ms <= ecc_max_ms")


@dataclass(frozen=True)
class ReliabilityConfig(Record):
    """Raw-bit-error-rate and ECC model parameters.

    The RBER curves are calibrated to the two measured points quoted in
    Section 2.2 / Figure 2 of the paper (Zhang et al., FAST'16): at 4000
    P/E cycles a conventionally-programmed SLC-mode page shows RBER
    2.8e-4 while a partially-programmed one shows 3.8e-4.
    """

    #: Device wear age assumed at simulation start (Table 2 default).
    initial_pe_cycles: int = 4000
    #: P/E count the calibration points below refer to.
    reference_pe_cycles: int = 4000
    #: RBER of a fresh conventionally-programmed SLC page.
    rber_fresh: float = 1e-5
    #: Conventional-programming RBER at the reference P/E count.
    rber_conventional_ref: float = 2.8e-4
    #: Partial-programming RBER at the reference P/E count (typical page
    #: that received the full budget of partial-program passes).
    rber_partial_ref: float = 3.8e-4
    #: Power-law exponent of RBER growth with P/E cycles.
    pe_exponent: float = 2.0
    #: MLC base RBER multiplier relative to SLC-mode.  The paper's error
    #: data (Zhang et al.) is measured on MLC hardware and applied to the
    #: SLC-mode pages unchanged, so both regions share the base curve.
    mlc_rber_factor: float = 1.0
    #: Stored-IS' refresh interval (ms): the paper keeps 4B of IS' state
    #: per SLC page (Section 4.4.1) instead of recomputing Equation 2 on
    #: every GC scan; cached values older than this are recomputed.
    isr_refresh_ms: float = 100.0
    #: Neighbour-page disturb delta as a fraction of in-page disturb delta.
    neighbor_disturb_ratio: float = 0.2
    #: BCH codeword payload in bytes (ISSCC'06-style 512B sectors).
    bch_codeword_bytes: int = 512
    #: BCH correction capability per codeword, in bits.
    bch_t: int = 5
    #: Manufacturer limit on program operations applied to one SLC page.
    max_page_programs: int = 4

    def validate(self) -> None:
        """Raise :class:`ConfigError` on inconsistent reliability settings."""
        if self.initial_pe_cycles < 0:
            raise ConfigError("initial_pe_cycles must be >= 0")
        if self.reference_pe_cycles <= 0:
            raise ConfigError("reference_pe_cycles must be positive")
        if not (0.0 <= self.rber_fresh <= self.rber_conventional_ref):
            raise ConfigError("require 0 <= rber_fresh <= rber_conventional_ref")
        if self.rber_partial_ref < self.rber_conventional_ref:
            raise ConfigError("partial-programming RBER must be >= conventional RBER")
        if self.pe_exponent <= 0:
            raise ConfigError("pe_exponent must be positive")
        if self.mlc_rber_factor < 1.0:
            raise ConfigError("mlc_rber_factor must be >= 1")
        if self.isr_refresh_ms < 0:
            raise ConfigError("isr_refresh_ms must be >= 0")
        if not (0.0 <= self.neighbor_disturb_ratio <= 1.0):
            raise ConfigError("neighbor_disturb_ratio must lie in [0, 1]")
        if self.bch_codeword_bytes <= 0 or self.bch_t <= 0:
            raise ConfigError("BCH parameters must be positive")
        if self.max_page_programs < 1:
            raise ConfigError("max_page_programs must be >= 1")


@dataclass(frozen=True)
class CacheConfig(Record):
    """SLC-mode cache sizing and garbage-collection policy knobs."""

    #: Fraction of blocks operated in SLC mode (Table 2: 5%).
    slc_ratio: float = 0.05
    #: GC triggers when the free-block fraction of a region drops below this.
    gc_threshold: float = 0.05
    #: Free-block fraction a GC pass tries to restore.
    gc_restore: float = 0.10
    #: Victim blocks whose collection may *start* per trigger.  Bounding
    #: the foreground GC work per request is what lets cache pressure show
    #: up as host writes spilling into the high-density region (Figure 6)
    #: instead of as unbounded queueing.
    gc_max_blocks_per_trigger: int = 1
    #: Pages relocated per trigger: victims drain incrementally across
    #: requests, so one collection blocks a chip for a few page moves at a
    #: time instead of a whole-block blob (standard partial-GC technique).
    gc_pages_per_trigger: int = 8
    #: Enable static wear-levelling (Table 2).
    static_wear_leveling: bool = True
    #: Static WL triggers when (max - min) erase count exceeds this gap.
    wear_leveling_gap: int = 32
    #: Check the static WL condition every this many erases.
    wear_leveling_period: int = 64

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid cache policy settings."""
        if not (0.0 < self.slc_ratio < 1.0):
            raise ConfigError("slc_ratio must lie strictly between 0 and 1")
        if not (0.0 < self.gc_threshold < 1.0):
            raise ConfigError("gc_threshold must lie strictly between 0 and 1")
        if not (self.gc_threshold <= self.gc_restore < 1.0):
            raise ConfigError("require gc_threshold <= gc_restore < 1")
        if self.wear_leveling_gap < 1 or self.wear_leveling_period < 1:
            raise ConfigError("wear-leveling parameters must be >= 1")
        if self.gc_max_blocks_per_trigger < 1:
            raise ConfigError("gc_max_blocks_per_trigger must be >= 1")
        if self.gc_pages_per_trigger < 1:
            raise ConfigError("gc_pages_per_trigger must be >= 1")


@dataclass(frozen=True)
class TranslationConfig(Record):
    """Demand-paged address translation (DFTL-style CMT; an extension the
    paper motivates but does not evaluate — disabled by default).

    When enabled, mapping lookups outside the cached translation pages
    cost a foreground flash read (plus a program for dirty evictions);
    see :mod:`repro.ftl.translation`.
    """

    enabled: bool = False
    #: Mapping entries per translation page (4-byte entries, 16 KiB page).
    entries_per_page: int = 4096
    #: Translation pages the controller SRAM can hold.
    cache_pages: int = 64

    def validate(self) -> "TranslationConfig":
        """Raise :class:`ConfigError` on invalid CMT parameters."""
        if self.entries_per_page < 1:
            raise ConfigError("entries_per_page must be >= 1")
        if self.cache_pages < 1:
            raise ConfigError("cache_pages must be >= 1")
        return self


@dataclass(frozen=True)
class SSDConfig(Record):
    """Complete simulator configuration."""

    geometry: GeometryConfig = field(default_factory=GeometryConfig)
    timing: TimingConfig = field(default_factory=TimingConfig)
    reliability: ReliabilityConfig = field(default_factory=ReliabilityConfig)
    cache: CacheConfig = field(default_factory=CacheConfig)
    translation: TranslationConfig = field(default_factory=TranslationConfig)
    seed: int | None = None

    @property
    def slc_blocks(self) -> int:
        """Number of blocks operated in SLC mode."""
        return max(1, round(self.geometry.total_blocks * self.cache.slc_ratio))

    @property
    def mlc_blocks(self) -> int:
        """Number of blocks left in native high-density (MLC) mode."""
        return self.geometry.total_blocks - self.slc_blocks

    @property
    def slc_capacity_bytes(self) -> int:
        """Usable bytes of the SLC-mode cache region."""
        g = self.geometry
        return self.slc_blocks * g.slc_pages_per_block * g.page_size

    @property
    def mlc_capacity_bytes(self) -> int:
        """Usable bytes of the high-density region."""
        g = self.geometry
        return self.mlc_blocks * g.mlc_pages_per_block * g.page_size

    @property
    def capacity_bytes(self) -> int:
        """Total usable bytes of the device."""
        return self.slc_capacity_bytes + self.mlc_capacity_bytes

    def validate(self) -> "SSDConfig":
        """Validate all sections; returns ``self`` for chaining."""
        self.geometry.validate()
        self.timing.validate()
        self.reliability.validate()
        self.cache.validate()
        self.translation.validate()
        if self.mlc_blocks < 1:
            raise ConfigError("configuration leaves no high-density blocks")
        return self

    def with_pe_cycles(self, pe: int) -> "SSDConfig":
        """Return a copy with a different initial device wear age."""
        return replace(self, reliability=replace(self.reliability, initial_pe_cycles=pe))

    def describe(self) -> dict[str, object]:
        """Flat summary used by the Table 2 experiment and the CLI."""
        g, t = self.geometry, self.timing
        return {
            "Block number": g.total_blocks,
            "SLC mode ratio": f"{self.cache.slc_ratio:.0%}",
            "SLC/MLC Page": f"{g.slc_pages_per_block}/{g.mlc_pages_per_block}",
            "Page size": f"{g.page_size // KIB}KB",
            "GC threshold": f"{self.cache.gc_threshold:.0%}",
            "Wear-leveling": "static" if self.cache.static_wear_leveling else "none",
            "FTL scheme": "Page",
            "SLC read time (ms)": t.slc_read_ms,
            "MLC read time (ms)": t.mlc_read_ms,
            "ECC min time (ms)": t.ecc_min_ms,
            "ECC max time (ms)": t.ecc_max_ms,
            "SLC write time (ms)": t.slc_write_ms,
            "MLC write time (ms)": t.mlc_write_ms,
            "Erase time (ms)": t.erase_ms,
            "P/E cycle": self.reliability.initial_pe_cycles,
        }


@dataclass(frozen=True)
class ScaleSpec:
    """A named simulation scale.

    ``total_blocks`` sizes generic (non-trace) configurations;
    trace-driven experiments size the device per trace instead (see
    :meth:`repro.experiments.runner.RunContext.trace_config`) and use
    ``target_requests``/``max_requests`` to shrink the trace.
    """

    name: str
    total_blocks: int
    target_requests: int
    max_requests: int
    channels: int = 8
    chips_per_channel: int = 2
    planes_per_chip: int = 2

    def validate(self) -> None:
        """Raise :class:`ConfigError` on invalid scale parameters."""
        if self.total_blocks < 1 or self.max_requests < 1:
            raise ConfigError("scale must have positive blocks and requests")
        if not 1 <= self.target_requests <= self.max_requests:
            raise ConfigError("require 1 <= target_requests <= max_requests")


#: Built-in scales.  ``paper`` mirrors Table 2 exactly; the smaller scales
#: shrink the device and let the experiment runner shrink the traces so
#: the working-set-to-cache pressure stays comparable.
SCALES: dict[str, ScaleSpec] = {
    "smoke": ScaleSpec("smoke", total_blocks=64, target_requests=4_000,
                       max_requests=6_000,
                       channels=4, chips_per_channel=2, planes_per_chip=1),
    "small": ScaleSpec("small", total_blocks=160, target_requests=45_000,
                       max_requests=80_000,
                       channels=4, chips_per_channel=2, planes_per_chip=1),
    "medium": ScaleSpec("medium", total_blocks=640, target_requests=150_000,
                        max_requests=400_000,
                        channels=8, chips_per_channel=2, planes_per_chip=1),
    "paper": ScaleSpec("paper", total_blocks=65536, target_requests=2_000_000,
                       max_requests=10_000_000),
}


def paper_config(seed: int | None = None) -> SSDConfig:
    """The exact Table 2 configuration."""
    return SSDConfig(seed=seed).validate()


def scaled_config(scale: str | ScaleSpec = "small", seed: int | None = None) -> SSDConfig:
    """A configuration shrunk according to a :class:`ScaleSpec`.

    Everything except the block count and parallelism stays at Table 2
    values, so per-operation latencies and RBER behaviour are unchanged.
    """
    spec = SCALES[scale] if isinstance(scale, str) else scale
    spec.validate()
    planes = spec.channels * spec.chips_per_channel * spec.planes_per_chip
    total = max(planes, spec.total_blocks - spec.total_blocks % planes)
    geometry = GeometryConfig(
        channels=spec.channels,
        chips_per_channel=spec.chips_per_channel,
        planes_per_chip=spec.planes_per_chip,
        total_blocks=total,
    )
    return SSDConfig(geometry=geometry, seed=seed).validate()


