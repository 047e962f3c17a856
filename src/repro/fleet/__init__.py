"""Sharded multi-device fleet simulation (streaming + checkpoint/restore).

The fleet layer sits above the single-device simulator and answers the
questions one cell cannot: tail latency across an *array* of devices
serving a multi-tenant workload, and capacity loss as the array ages
through long fault-injected campaigns.  Three pieces make it work:

* **streaming trace replay** (:mod:`repro.traces.stream`) keeps memory
  constant over arbitrarily long traces,
* **checkpoint/restore** (:mod:`repro.fleet.checkpoint`) snapshots a
  device replay every N epochs and resumes it byte-identically,
* **static LSN sharding** (:mod:`repro.fleet.shard`) splits one merged
  tenant stream across the devices, which then fan out over the
  existing process pool and result cache.

See ``docs/FLEET.md`` for the model and the determinism contracts.
"""

from .. import lazy_exports

_EXPORTS = {
    "CheckpointError": ".checkpoint", "CheckpointStore": ".checkpoint",
    "FleetConfig": ".config",
    "OffsetStream": ".shard", "ShardedStream": ".shard",
    "TenantSpec": ".config",
    "run_campaign": ".campaign",
    "run_device": ".runner",
    "shard_of": ".shard",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
