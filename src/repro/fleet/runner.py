"""One fleet device: build, stream, epoch loop, checkpoint, summarise.

A *device cell* is the fleet counterpart of an experiment cell: fully
determined by ``(FleetConfig, device index)``, replayed through the
standard :class:`~repro.sim.simulator.OpenLoopReplay`, and serialised
to a JSON-ready payload the result cache can hold.  The replay is
chunked on the epoch grid — each fleet-wide epoch chunk shards to one
(possibly empty) device chunk — and after every epoch the driver drains
its latency window into an epoch record: exact percentiles for the
device's own tail curve plus a fixed log-spaced histogram the campaign
layer merges for *fleet-level* percentiles (integer bin counts merge
exactly; percentile-of-concatenated-arrays would need every latency).

Checkpoints snapshot the replay driver after every ``checkpoint_every``
epochs; a resume loads the newest snapshot, fast-forwards the
deterministic stream past the consumed epochs, and continues
bit-identically.  Everything here is wall-clock-free: a device payload
is a pure function of its config, which is what makes it cacheable and
the resume-equality check (`tests/test_fleet.py`, the CI fleet smoke
job) meaningful at byte granularity.
"""

from __future__ import annotations

import math
from dataclasses import fields
from typing import TYPE_CHECKING

import numpy as np

from ..config import SSDConfig
from ..errors import ExperimentError
from ..faults.plan import FaultStats
from ..traces.profiles import TraceProfile, profile
from ..traces.stream import MergedStream, TraceStream
from ..traces.synth import SyntheticStream
from ..units import Ms
from .checkpoint import CheckpointStore
from .config import FleetConfig
from .shard import OffsetStream, ShardedStream

if TYPE_CHECKING:
    from ..sim.simulator import OpenLoopReplay

__all__ = [
    "LAT_HIST_EDGES_MS", "check_device_payload", "device_config",
    "device_stream", "fleet_stream", "histogram_latencies", "run_device",
]

#: Log-spaced latency histogram edges (ms): 96 bins over 1 µs..10 s plus
#: an underflow and an overflow bucket.  Integer counts over fixed edges
#: merge exactly across devices, which is what makes fleet-level tail
#: percentiles deterministic without shipping raw latency arrays.
_HIST_BINS = 96
_HIST_LO_EXP = -3.0
_HIST_HI_EXP = 4.0
LAT_HIST_EDGES_MS: np.ndarray = np.logspace(
    _HIST_LO_EXP, _HIST_HI_EXP, _HIST_BINS + 1)

#: Tail quantiles of the fleet curves.
TAIL_QUANTILES: tuple[tuple[str, float], ...] = (
    ("lat_p50_ms", 50.0), ("lat_p99_ms", 99.0), ("lat_p999_ms", 99.9))

#: Cumulative device counters the campaign sums into its totals: the
#: wear counters, then every integer fault counter in declaration order.
#: Integers only (exact under any summation order); float accumulators
#: such as ``read_raw_errors`` and ``recovery_ms`` stay per-device in
#: the payloads.
TOTAL_FIELDS = (
    "n_requests", "erases_slc", "erases_mlc", "programs_slc",
    "programs_mlc", "partial_programs", "intra_page_updates",
) + tuple(counter.name for counter in fields(FaultStats)
          if isinstance(counter.default, int))


def histogram_latencies(latencies: np.ndarray) -> list[int]:
    """Counts of ``latencies`` in the fixed fleet bins.

    Layout: ``[underflow, *bins, overflow]`` — length ``_HIST_BINS + 2``.
    ``np.histogram`` closes its last bin, so a latency exactly on the top
    edge lands there, not in overflow: every binned latency is at most
    the upper edge :func:`quantile_from_histogram` reports for it.
    """
    if not len(latencies):
        return [0] * (_HIST_BINS + 2)
    counts, _ = np.histogram(latencies, bins=LAT_HIST_EDGES_MS)
    under = int((latencies < LAT_HIST_EDGES_MS[0]).sum())
    over = int((latencies > LAT_HIST_EDGES_MS[-1]).sum())
    return [under] + [int(c) for c in counts] + [over]


def quantile_from_histogram(hist: "list[int]", q: float) -> float:
    """Upper bin edge at cumulative quantile ``q`` (percent).

    Deterministic by construction (integer counts, fixed edges): the
    reported value is the upper edge of the first bin whose cumulative
    count reaches ``ceil(q/100 * total)``.  Underflow reports the lowest
    edge; overflow the highest.
    """
    total = sum(hist)
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(q / 100.0 * total))
    running = 0
    for i, count in enumerate(hist):
        running += count
        if running >= rank:
            if i == 0:
                return float(LAT_HIST_EDGES_MS[0])
            if i >= len(hist) - 1:
                return float(LAT_HIST_EDGES_MS[-1])
            return float(LAT_HIST_EDGES_MS[i])
    return float(LAT_HIST_EDGES_MS[-1])  # pragma: no cover - unreachable


# -- device sizing ----------------------------------------------------------


def device_config(cfg: FleetConfig) -> SSDConfig:
    """Per-device configuration sized for this fleet's workload share.

    Each tenant runs the standard sizing pilot, scaled to the tenant's
    full request count; the fleet-wide footprints summed over the mix
    divide evenly across the array (striping spreads every tenant over
    every device), then flow through the single-device experiment
    runner's sizing, so a one-device fleet sizes like an ordinary cell.
    """
    from ..config import SCALES
    from ..experiments.runner import pilot_footprints, sized_config

    if cfg.scale not in SCALES:
        raise ExperimentError(
            f"unknown scale {cfg.scale!r}; available: {', '.join(SCALES)}")
    hotset_bytes = page_fp = 0.0
    for index, (tenant, n_requests) in enumerate(
            zip(cfg.tenants, cfg.tenant_requests())):
        pilot = pilot_footprints(profile(tenant.profile), n_requests,
                                 cfg.tenant_seed(index))
        hotset_bytes += pilot.hotset_bytes
        page_fp += pilot.page_footprint_bytes
    return sized_config(SCALES[cfg.scale], hotset_bytes / cfg.n_devices,
                        page_fp / cfg.n_devices, cfg.seed)


def _tenant_interarrival_ms(cfg: FleetConfig, index: int,
                            prof: TraceProfile, dev_cfg: SSDConfig) -> Ms:
    """Mean inter-arrival of tenant ``index``'s stream.

    :func:`~repro.experiments.runner.estimate_interarrival_ms` gives the
    arrival period that loads one device to target utilisation with this
    profile alone; tenant ``index`` supplies a ``weight/total`` share of
    the fleet-wide traffic feeding ``n_devices`` devices, so its period
    stretches by ``total_weight / (weight * n_devices)``.
    """
    from ..experiments.runner import estimate_interarrival_ms
    total_weight = sum(t.weight for t in cfg.tenants)
    base = estimate_interarrival_ms(prof, dev_cfg)
    return base * total_weight / (cfg.tenants[index].weight * cfg.n_devices)


# -- streams ----------------------------------------------------------------


def fleet_stream(cfg: FleetConfig, dev_cfg: "SSDConfig | None" = None,
                 ) -> TraceStream:
    """The merged multi-tenant fleet arrival stream (pre-sharding).

    Chunked on the epoch grid: chunk ``k`` holds fleet epoch ``k``'s
    requests.  Pure function of the config — re-iterable, so checkpoint
    fast-forward can regenerate it.
    """
    if dev_cfg is None:
        dev_cfg = device_config(cfg)
    streams: list[TraceStream] = []
    for index, (tenant, n_requests) in enumerate(
            zip(cfg.tenants, cfg.tenant_requests())):
        if n_requests < 1:
            continue
        prof = profile(tenant.profile)
        synth = SyntheticStream(
            prof, n_requests=n_requests,
            mean_interarrival_ms=_tenant_interarrival_ms(
                cfg, index, prof, dev_cfg),
            seed=cfg.tenant_seed(index),
            chunk_requests=cfg.epoch_requests)
        streams.append(OffsetStream(
            synth, cfg.tenant_base_offset(index),
            name=f"tenant{index}:{tenant.profile}"))
    return MergedStream(streams, chunk_requests=cfg.epoch_requests,
                        name=f"fleet:{cfg.scheme}")


def device_stream(cfg: FleetConfig, device: int,
                  dev_cfg: "SSDConfig | None" = None) -> ShardedStream:
    """Device ``device``'s shard of the fleet stream (epoch-aligned)."""
    return ShardedStream(fleet_stream(cfg, dev_cfg), device,
                         cfg.n_devices, cfg.stripe_bytes)


# -- the epoch loop ---------------------------------------------------------


def _epoch_record(cfg: FleetConfig, device: int, epoch: int,
                  replay: OpenLoopReplay, latencies: np.ndarray,
                  is_write: np.ndarray, dev_cfg: SSDConfig) -> dict:
    """One epoch's JSON-ready record: window tail stats + cumulative
    device counters (an aging snapshot, not a delta — cumulative integer
    counters are exact; windowed float deltas would not be)."""
    result = replay.result(f"fleet:d{device}")
    result.fleet_device = device
    result.fleet_epoch = epoch
    cum = result.deterministic_dict()
    # The latency arrays cover the run so far and grow per epoch; the
    # window percentiles below carry the distribution instead.
    cum.pop("read_latencies", None)
    cum.pop("write_latencies", None)
    record: dict = {
        "epoch": epoch,
        "device": device,
        "n_requests": int(len(latencies)),
        "reads": int((~is_write).sum()),
        "writes": int(is_write.sum()),
        "lat_hist": histogram_latencies(latencies),
        "cum": cum,
    }
    for field, q in TAIL_QUANTILES:
        record[field] = (float(np.percentile(latencies, q))
                         if len(latencies) else 0.0)
    total_blocks = dev_cfg.geometry.total_blocks
    record["capacity_loss"] = (
        cum["retired_blocks"] / total_blocks if total_blocks else 0.0)
    return record


def _build_replay(cfg: FleetConfig, device: int,
                  dev_cfg: SSDConfig) -> OpenLoopReplay:
    from ..faults.config import FaultConfig
    from ..faults.plan import attach_faults
    from ..schemes import SCHEMES
    from ..sim.simulator import OpenLoopReplay

    if cfg.scheme not in SCHEMES:
        raise ExperimentError(
            f"unknown scheme {cfg.scheme!r}; available: {', '.join(SCHEMES)}")
    ftl = SCHEMES[cfg.scheme](dev_cfg)
    faults = (FaultConfig.from_rate(cfg.fault_rate)
              if cfg.fault_rate > 0 else None)
    attach_faults(ftl, faults, seed=cfg.device_seed(device))
    return OpenLoopReplay(ftl, dev_cfg)


def _ints(values: object) -> bool:
    return all(type(value) is int for value in values)


def _aggregable_epoch(record: object) -> bool:
    """Whether ``record`` holds every epoch value the campaign reads."""
    if not isinstance(record, dict):
        return False
    hist, cum = record.get("lat_hist"), record.get("cum")
    return (isinstance(hist, list) and len(hist) == _HIST_BINS + 2
            and _ints(hist)
            and _ints(record.get(k) for k in ("n_requests", "reads", "writes"))
            and isinstance(cum, dict) and type(cum.get("retired_blocks")) is int)


def check_device_payload(cfg: FleetConfig, device: int,
                         payload: object) -> dict:
    """``payload`` if it can be device ``device``'s :func:`run_device`
    record of ``cfg``, else raise :class:`ExperimentError`.

    The result cache's decoder for device entries: an entry that is not
    an object, belongs to another device or config, or lacks a value the
    campaign aggregation reads — one complete record per epoch, the
    block count and the ``final`` totals — is a miss, not a crash there.
    """
    if isinstance(payload, dict):
        epochs, final = payload.get("epochs"), payload.get("final")
        if (payload.get("device") == device
                and payload.get("key") == cfg.device_key(device)
                and type(payload.get("total_blocks")) is int
                and isinstance(epochs, list) and len(epochs) == cfg.n_epochs
                and all(_aggregable_epoch(record) for record in epochs)
                and isinstance(final, dict)
                and _ints(final.get(name) for name in TOTAL_FIELDS)):
            return payload
    raise ExperimentError(
        f"cache entry is not fleet device {device}'s payload with "
        f"{cfg.n_epochs} complete epoch records")


def run_device(cfg: FleetConfig, device: int, *,
               checkpoint_dir: "str | None" = None,
               checkpoint_every: int = 0,
               stop_after_epoch: "int | None" = None) -> "dict | None":
    """Replay one device cell; returns its JSON-ready payload.

    With ``checkpoint_dir`` set the replay snapshots after every
    ``checkpoint_every`` completed epochs (0 = only when stopping), and
    a rerun resumes from the newest snapshot instead of starting over.
    ``stop_after_epoch`` ends the run early *after* saving a snapshot
    and returns ``None`` — the resumable-campaign hook the CI smoke job
    drives.  Resumed and uninterrupted runs are byte-identical.
    """
    cfg.validate()
    if stop_after_epoch is not None and checkpoint_dir is None:
        raise ExperimentError(
            "stop_after_epoch without checkpoint_dir would discard the run")
    dev_cfg = device_config(cfg)
    store = (CheckpointStore(checkpoint_dir, cfg.device_key(device))
             if checkpoint_dir is not None else None)

    replay: "OpenLoopReplay | None" = None
    epochs: list[dict] = []
    start_epoch = 0
    if store is not None:
        latest = store.latest_epoch(device)
        if latest is not None:
            payload = store.load(device, latest)
            replay = payload["replay"]
            epochs = list(payload["epochs"])
            start_epoch = int(payload["next_epoch"])
    if replay is None:
        replay = _build_replay(cfg, device, dev_cfg)

    stream = device_stream(cfg, device, dev_cfg)
    for epoch, chunk in enumerate(stream.chunks()):
        if epoch < start_epoch:
            # Fast-forward: the stream is deterministic, so skipping the
            # chunks a snapshot already consumed re-aligns it exactly.
            continue
        if stop_after_epoch is not None and epoch >= stop_after_epoch:
            assert store is not None
            store.save(device, epoch, {
                "replay": replay, "epochs": epochs, "next_epoch": epoch})
            return None
        replay.feed(chunk)
        latencies, is_write = replay.drain_window()
        epochs.append(_epoch_record(
            cfg, device, epoch, replay, latencies, is_write, dev_cfg))
        done = epoch + 1
        if (store is not None and checkpoint_every > 0
                and done % checkpoint_every == 0 and done < cfg.n_epochs):
            store.save(device, done, {
                "replay": replay, "epochs": epochs, "next_epoch": done})

    final = replay.result(f"fleet:d{device}")
    final.fleet_device = device
    final.fleet_epoch = cfg.n_epochs - 1
    final_dict = final.deterministic_dict()
    final_dict.pop("read_latencies", None)
    final_dict.pop("write_latencies", None)
    return {
        "device": device,
        "key": cfg.device_key(device),
        "total_blocks": dev_cfg.geometry.total_blocks,
        "epochs": epochs,
        "final": final_dict,
    }
