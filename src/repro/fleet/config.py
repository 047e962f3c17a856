"""Fleet campaign configuration.

A :class:`FleetConfig` fixes everything that determines a fleet
campaign's outcome: the device count, the per-tenant trace mixes
(profiles + traffic weights layered on the calibrated
:mod:`repro.traces.profiles`), the scheme/scale/seed cell identity, the
epoch grid, the static sharding stripe and the fault-injection rate.
Like :class:`repro.frontend.FrontendConfig` it is a dependency-light
:class:`~repro.record.Record` — the result cache keys on its dict form
and the parallel fan-out ships it inside the worker spec — and every
derived quantity (tenant request counts, tenant seeds, device cache
keys) is a pure function of it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from ..errors import ConfigError
from ..record import Record
from ..rng import derive_seed
from ..units import KIB

__all__ = [
    "DEFAULT_EPOCH_REQUESTS", "DEFAULT_N_EPOCHS", "DEFAULT_STRIPE_BYTES",
    "FleetConfig", "TENANT_ADDRESS_STRIDE", "TenantSpec",
]

#: Bytes of one sharding stripe: consecutive stripes go to consecutive
#: devices round-robin.  256 KiB keeps most requests (<= 64 KiB) inside
#: one stripe while still spreading hot extents across the array.
DEFAULT_STRIPE_BYTES = 256 * KIB
#: Fleet-wide requests per epoch (the checkpoint/metrics granularity).
DEFAULT_EPOCH_REQUESTS = 4_096
#: Epochs per campaign.
DEFAULT_N_EPOCHS = 4
#: Byte distance between tenant address spaces.  Each tenant's logical
#: extents live in its own 1 TiB-aligned window, so tenants can never
#: alias each other's data no matter how their traces grow.
TENANT_ADDRESS_STRIDE = 2 ** 40


@dataclass(frozen=True)
class TenantSpec(Record):
    """One tenant of the fleet workload: a trace profile plus a traffic
    weight (its share of the fleet-wide request budget)."""

    #: Name of a calibrated profile in :data:`repro.traces.profiles.PROFILES`.
    profile: str
    #: Relative share of the fleet request budget (normalised over tenants).
    weight: float = 1.0

    def validate(self) -> None:
        """Raise :class:`~repro.errors.ConfigError` on invalid values."""
        from ..traces.profiles import PROFILES
        if self.profile not in PROFILES:
            raise ConfigError(
                f"unknown tenant profile {self.profile!r}; "
                f"available: {', '.join(PROFILES)}")
        if not self.weight > 0:
            raise ConfigError(
                f"tenant weight must be positive, got {self.weight}")


@dataclass(frozen=True)
class FleetConfig(Record):
    """Everything that determines a fleet campaign's outcome."""

    #: Devices in the array.
    n_devices: int = 2
    #: Tenant workload mix (at least one).
    tenants: tuple[TenantSpec, ...] = field(
        default_factory=lambda: (TenantSpec("ts0"),))
    #: FTL scheme every device runs.
    scheme: str = "ipu"
    #: Device sizing scale preset (see :data:`repro.config.SCALES`).
    scale: str = "smoke"
    #: Root seed; tenant and device child seeds derive from it.
    seed: int = 1
    #: Epochs per campaign (the aging axis of the fleet curves).
    n_epochs: int = DEFAULT_N_EPOCHS
    #: Fleet-wide requests per epoch.  Also the stream chunk size, so an
    #: epoch boundary is a chunk boundary on every device.
    epoch_requests: int = DEFAULT_EPOCH_REQUESTS
    #: Sharding stripe in bytes (4 KiB-aligned).
    stripe_bytes: int = DEFAULT_STRIPE_BYTES
    #: Fault-injection rate multiplier (0 = fault-free), applied per
    #: device via :meth:`repro.faults.FaultConfig.from_rate`.
    fault_rate: float = 0.0

    def validate(self) -> "FleetConfig":
        """Raise :class:`~repro.errors.ConfigError` on invalid values."""
        if self.n_devices < 1:
            raise ConfigError(f"n_devices must be >= 1, got {self.n_devices}")
        if not self.tenants:
            raise ConfigError("fleet needs at least one tenant")
        for tenant in self.tenants:
            tenant.validate()
        if self.n_epochs < 1:
            raise ConfigError(f"n_epochs must be >= 1, got {self.n_epochs}")
        if self.epoch_requests < 1:
            raise ConfigError(
                f"epoch_requests must be >= 1, got {self.epoch_requests}")
        if self.stripe_bytes < 4 * KIB or self.stripe_bytes % (4 * KIB):
            raise ConfigError(
                f"stripe_bytes must be a positive multiple of 4 KiB, "
                f"got {self.stripe_bytes}")
        if self.fault_rate < 0:
            raise ConfigError(
                f"fault_rate must be >= 0, got {self.fault_rate}")
        return self

    # -- derived identities -------------------------------------------------

    @property
    def total_requests(self) -> int:
        """Fleet-wide requests over the whole campaign."""
        return self.n_epochs * self.epoch_requests

    def tenant_requests(self) -> list[int]:
        """Per-tenant request counts, split from :attr:`total_requests`
        proportionally to the weights (largest-remainder rounding, so
        the counts always sum exactly and deterministically)."""
        weights = [t.weight for t in self.tenants]
        total_weight = sum(weights)
        total = self.total_requests
        raw = [total * w / total_weight for w in weights]
        counts = [int(r) for r in raw]
        shortfall = total - sum(counts)
        # Largest fractional remainders get the leftover requests; ties
        # break by tenant position, so the split is order-stable.
        remainders = sorted(range(len(raw)),
                            key=lambda i: (-(raw[i] - counts[i]), i))
        for i in remainders[:shortfall]:
            counts[i] += 1
        return counts

    def tenant_seed(self, index: int) -> int:
        """Root seed of tenant ``index``'s trace stream.

        Derived per *index*, not per profile, so two tenants running the
        same profile still generate independent traces.
        """
        return derive_seed(self.seed, f"fleet:tenant:{index}")

    def device_seed(self, device: int) -> int:
        """Root seed of ``device``'s fault-injection streams (devices
        must not fail in lockstep)."""
        return derive_seed(self.seed, f"fleet:device:{device}")

    def tenant_base_offset(self, index: int) -> int:
        """Byte offset of tenant ``index``'s private address window."""
        return index * TENANT_ADDRESS_STRIDE

    def device_key(self, device: int) -> str:
        """Content hash identifying one device-cell of this campaign for
        the on-disk result cache (schema-versioned like every key)."""
        from ..experiments.cache import CACHE_SCHEMA_VERSION
        payload = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": "fleet-device",
            "fleet": self.to_dict(),
            "device": int(device),
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()
