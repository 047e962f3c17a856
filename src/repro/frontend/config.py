"""Device front-end configuration.

A :class:`FrontendConfig` fixes the shape of the host-side layer the
simulator can interpose between the request stream and the FTL: the
write-back DRAM buffer (capacity, flush watermark, writeback delay,
coalescing span) and the multi-queue scheduler (queue depth, DRAM
service costs).  It is a :class:`~repro.record.Record` — the experiment
cache keys on its dict form and the parallel fan-out ships it inside the
worker spec — and imports nothing from the simulator layers.

A default-constructed config is *disabled*: carrying it through a run
context is bit-identical to not having the front-end at all (the
runner canonicalises a disabled config to ``None`` everywhere, exactly
as :class:`repro.faults.FaultConfig` does).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ..errors import ConfigError
from ..record import Record
from ..units import Ms, SubpageCount

#: Queue depth used when a sweep only says "frontend on".
DEFAULT_QUEUE_DEPTH = 8


@dataclass(frozen=True)
class FrontendConfig(Record):
    """Write-buffer and scheduler parameters for the device front-end."""

    #: Master switch.  ``False`` means requests go straight to the FTL
    #: through the classic direct replay path — byte-identical results.
    enabled: bool = False

    # -- scheduler ---------------------------------------------------------

    #: Maximum requests in flight across all per-chip queues.
    queue_depth: int = DEFAULT_QUEUE_DEPTH

    # -- write buffer ------------------------------------------------------

    #: DRAM write-buffer capacity in 4 KiB subpages.
    buffer_subpages: SubpageCount = 256
    #: Flush-on-pressure drains the buffer down to this fraction of the
    #: capacity, so one overflow amortises over a batch of evictions.
    flush_watermark: float = 0.75
    #: Entries dirty for longer than this are destaged by the periodic
    #: writeback sweep (0 = destage only under pressure / at drain).
    writeback_delay_ms: Ms = 4.0
    #: Cap on how many adjacent dirty subpages one eviction coalesces
    #: into a single FTL write span.
    flush_span_subpages: SubpageCount = 8

    # -- DRAM service costs ------------------------------------------------

    #: Host-visible cost of absorbing a write into the buffer.
    write_ack_ms: Ms = 0.002
    #: Host-visible cost of serving a read hit from the buffer.
    read_hit_ms: Ms = 0.002

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on invalid values."""
        if self.queue_depth < 1:
            raise ConfigError(f"queue_depth {self.queue_depth} < 1")
        if self.buffer_subpages < 1:
            raise ConfigError(f"buffer_subpages {self.buffer_subpages} < 1")
        if not 0.0 < self.flush_watermark < 1.0:
            raise ConfigError(
                f"flush_watermark {self.flush_watermark} not in (0, 1)")
        if self.writeback_delay_ms < 0:
            raise ConfigError(
                f"negative writeback_delay_ms {self.writeback_delay_ms}")
        if self.flush_span_subpages < 1:
            raise ConfigError(
                f"flush_span_subpages {self.flush_span_subpages} < 1")
        if self.write_ack_ms < 0:
            raise ConfigError(f"negative write_ack_ms {self.write_ack_ms}")
        if self.read_hit_ms < 0:
            raise ConfigError(f"negative read_hit_ms {self.read_hit_ms}")

    @classmethod
    def from_qd(cls, queue_depth: int = DEFAULT_QUEUE_DEPTH,
                ) -> "FrontendConfig":
        """An enabled config at ``queue_depth``, buffer knobs at defaults
        (the CLI's ``--frontend --qd N`` and the ext-qd sweep)."""
        cfg = replace(cls(), enabled=True, queue_depth=queue_depth)
        cfg.validate()
        return cfg
