"""Fleet campaign orchestration and aggregation.

:func:`run_campaign` fans the fleet's device cells over the experiment
layer's process pool (:mod:`repro.experiments.parallel`), consulting the
shared on-disk result cache per device, then folds the per-device
payloads into the fleet artifacts: per-epoch tail-latency curves
(p50/p99/p999 over the *merged* device histograms — integer bin counts
merge exactly, so the fleet percentiles are deterministic regardless of
worker count or cache state) and the capacity-loss-vs-age curve
(retired blocks over fleet blocks, per epoch).

The aggregate serialises through :func:`campaign_json` — canonical JSON,
sorted keys, no whitespace variance — which is the byte-identity surface
the checkpoint/resume contract is checked against: a campaign stopped
mid-flight with ``stop_after_epoch`` and rerun to completion must
produce the same bytes as one that never stopped (CI's fleet smoke job
runs exactly that comparison).
"""

from __future__ import annotations

import json

from ..errors import ExperimentError
from .config import FleetConfig
from .runner import TAIL_QUANTILES, TOTAL_FIELDS, quantile_from_histogram

__all__ = ["aggregate_fleet", "campaign_json", "run_campaign"]


def aggregate_fleet(cfg: FleetConfig, devices: "list[dict]") -> dict:
    """Fold per-device payloads into the fleet-level campaign record."""
    devices = sorted(devices, key=lambda d: d["device"])
    fleet_blocks = sum(d["total_blocks"] for d in devices)

    epochs: list[dict] = []
    for epoch in range(cfg.n_epochs):
        per_dev = [d["epochs"][epoch] for d in devices]
        merged_hist = [0] * len(per_dev[0]["lat_hist"])
        for rec in per_dev:
            for i, count in enumerate(rec["lat_hist"]):
                merged_hist[i] += count
        record: dict = {
            "epoch": epoch,
            "n_requests": sum(r["n_requests"] for r in per_dev),
            "reads": sum(r["reads"] for r in per_dev),
            "writes": sum(r["writes"] for r in per_dev),
            "lat_hist": merged_hist,
            "retired_blocks": sum(r["cum"]["retired_blocks"]
                                  for r in per_dev),
        }
        for field, q in TAIL_QUANTILES:
            record[field] = quantile_from_histogram(merged_hist, q)
        record["capacity_loss"] = (
            record["retired_blocks"] / fleet_blocks if fleet_blocks else 0.0)
        epochs.append(record)

    totals = {name: sum(d["final"][name] for d in devices)
              for name in TOTAL_FIELDS}
    return {
        "fleet": cfg.to_dict(),
        "n_devices": cfg.n_devices,
        "fleet_blocks": fleet_blocks,
        "devices": devices,
        "epochs": epochs,
        "totals": totals,
    }


def campaign_json(campaign: dict) -> str:
    """Canonical JSON of a campaign record (the byte-identity surface)."""
    return json.dumps(campaign, sort_keys=True, separators=(",", ":"))


def run_campaign(cfg: FleetConfig, *, jobs: "int | None" = None,
                 cache_dir: "str | None" = None,
                 checkpoint_dir: "str | None" = None,
                 checkpoint_every: int = 0,
                 stop_after_epoch: "int | None" = None) -> "dict | None":
    """Run every device cell of ``cfg`` and aggregate the fleet record.

    Device cells fan out over ``jobs`` worker processes (1 = inline) and
    short-circuit on the result cache under ``cache_dir``.  With
    ``checkpoint_dir`` set, each device snapshots every
    ``checkpoint_every`` epochs and a rerun resumes from the newest
    snapshots.  ``stop_after_epoch`` pauses the whole campaign there —
    snapshots are saved and ``None`` is returned; rerunning without it
    finishes the campaign byte-identically to an uninterrupted run.
    """
    cfg.validate()
    from ..experiments.parallel import (
        FleetDeviceSpec, run_cells, simulate_fleet_device)

    specs = [FleetDeviceSpec(fleet=cfg, device=device,
                             cache_dir=cache_dir,
                             checkpoint_dir=checkpoint_dir,
                             checkpoint_every=checkpoint_every,
                             stop_after_epoch=stop_after_epoch)
             for device in range(cfg.n_devices)]
    payloads = run_cells(specs, jobs, simulate_fleet_device)
    if stop_after_epoch is not None:
        return None
    missing = [spec.device for spec, payload in zip(specs, payloads)
               if payload is None]
    if missing:
        raise ExperimentError(
            f"fleet devices returned no payload: {missing}")
    return aggregate_fleet(cfg, [p for p in payloads if p is not None])
