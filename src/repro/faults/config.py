"""Fault-injection configuration.

A :class:`FaultConfig` fixes *how often* each fault mechanism fires and
how the device responds (retry ladder depth, torn-page window, bad-block
budget).  It is a :class:`~repro.record.Record` — the experiment cache
keys on its dict form, and the CLI builds one from a single sweep rate —
and imports nothing from the simulator layers.

All rates default to zero: a default-constructed config is *disabled* and
a simulation carrying it is bit-identical to one without the subsystem.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ConfigError
from ..record import Record
from ..units import Ms


@dataclass(frozen=True)
class FaultConfig(Record):
    """Rates and response parameters for the three fault mechanisms."""

    #: Multiplier applied to the ECC model's uncorrectable-read
    #: probability before sampling a transient read failure.  The raw BCH
    #: failure probability of a healthy device is astronomically small;
    #: the scale maps it into a regime where campaigns see events.
    read_fault_scale: float = 0.0
    #: Per-program probability that the pulse fails and the block is
    #: condemned (retired at its next erase).
    program_fault_rate: float = 0.0
    #: Per-erase probability that the erase fails and the block retires.
    erase_fault_rate: float = 0.0
    #: Power-loss events per simulated millisecond (exponential gaps).
    power_loss_per_ms: float = 0.0

    #: Read-retry ladder depth before the read is declared uncorrectable.
    read_retries_max: int = 5
    #: Each retry multiplies the failure probability by this factor
    #: (voltage-shifted re-reads recover progressively more margin).
    retry_success_scale: float = 0.5
    #: Reads that needed at least this many retries relocate the page.
    relocate_after_retries: int = 2
    #: Subpages programmed within this window before a power loss are torn.
    torn_window_ms: Ms = 1.0
    #: Cap on the fraction of a region's blocks that may retire; past it
    #: failures are still counted but blocks return to service (a real
    #: drive would go read-only — the simulator keeps serving instead of
    #: deadlocking its GC).
    max_retire_fraction: float = 0.1
    #: Maximum consecutive remap attempts for one failing program.
    program_retry_limit: int = 4

    @property
    def enabled(self) -> bool:
        """True when any mechanism can fire.

        A disabled config consumes no random draws, so attaching it (or
        none at all) yields bit-identical simulations.
        """
        return (self.read_fault_scale > 0.0
                or self.program_fault_rate > 0.0
                or self.erase_fault_rate > 0.0
                or self.power_loss_per_ms > 0.0)

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on invalid values."""
        if self.read_fault_scale < 0:
            raise ConfigError(f"negative read_fault_scale {self.read_fault_scale}")
        if not 0.0 <= self.program_fault_rate <= 1.0:
            raise ConfigError(
                f"program_fault_rate {self.program_fault_rate} not in [0, 1]")
        if not 0.0 <= self.erase_fault_rate <= 1.0:
            raise ConfigError(
                f"erase_fault_rate {self.erase_fault_rate} not in [0, 1]")
        if self.power_loss_per_ms < 0:
            raise ConfigError(f"negative power_loss_per_ms {self.power_loss_per_ms}")
        if self.read_retries_max < 1:
            raise ConfigError(f"read_retries_max {self.read_retries_max} < 1")
        if not 0.0 < self.retry_success_scale <= 1.0:
            raise ConfigError(
                f"retry_success_scale {self.retry_success_scale} not in (0, 1]")
        if self.relocate_after_retries < 1:
            raise ConfigError(
                f"relocate_after_retries {self.relocate_after_retries} < 1")
        if self.torn_window_ms < 0:
            raise ConfigError(f"negative torn_window_ms {self.torn_window_ms}")
        if not 0.0 <= self.max_retire_fraction <= 1.0:
            raise ConfigError(
                f"max_retire_fraction {self.max_retire_fraction} not in [0, 1]")
        if self.program_retry_limit < 1:
            raise ConfigError(
                f"program_retry_limit {self.program_retry_limit} < 1")

    @classmethod
    def from_rate(cls, rate: float) -> "FaultConfig":
        """One-knob campaign config: map a sweep rate to all mechanisms.

        The per-mechanism factors are chosen so a smoke-scale campaign at
        ``rate=1.0`` exercises every mechanism (retries, retirements and
        power losses all appear) while ``rate=0.0`` is exactly disabled.
        """
        if rate < 0:
            raise ConfigError(f"negative fault rate {rate}")
        if rate == 0:
            return cls()
        return cls(
            read_fault_scale=200.0 * rate,
            program_fault_rate=min(1.0, 0.02 * rate),
            erase_fault_rate=min(1.0, 0.2 * rate),
            power_loss_per_ms=0.001 * rate,
        )
