#!/usr/bin/env python3
"""Regenerate the committed reference artifacts in this directory.

With no flags, everything regenerates in **one pass** — figure/table
JSONs, the smoke-scale golden metric files under ``golden/`` (the
direct-path ``*_smoke.json`` pins, the front-end ``frontend_qd.json``
pins and the per-driver ``drivers_faults.json`` pins), and
``schema_snapshot.json`` — so a behaviour change can never leave one
artifact class stale while the others move (PR 4 shipped a stale
``fig12.json`` exactly that way).  ``--figures`` / ``--golden`` /
``--schema`` restrict the pass when only one class is affected.

Every invocation ends with a schema-sync check: if the on-disk
``schema_snapshot.json`` is not what the live ``SimulationResult``
schema and ``CACHE_SCHEMA_VERSION`` write
(:func:`repro.experiments.cache.schema_snapshot_text`) after the pass,
the script fails loudly (exit 1) instead of leaving
``tests/test_result_schema.py`` checking against a stale snapshot.
"""

import argparse
import dataclasses
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from repro.experiments import EXPERIMENTS, run
from repro.experiments.cache import schema_snapshot_text
from repro.experiments.runner import RunContext, SCHEME_ORDER
from repro.traces.profiles import TRACE_NAMES

OUT = Path(__file__).parent
SCALE, SEED = "small", 1
SCHEMA_SNAPSHOT = OUT / "schema_snapshot.json"

GOLDEN_SCALE, GOLDEN_SEED = "smoke", 1
#: Headline metrics pinned per figure: fig5 reads the latency triple,
#: fig9 the GC page-utilisation ratio.
GOLDEN_METRICS = {
    "fig5": ("avg_latency_ms", "avg_read_latency_ms", "avg_write_latency_ms",
             "read_error_rate"),
    "fig9": ("slc_page_utilization", "erases_slc", "erases_mlc"),
}
#: Front-end pins: every cell replays through the write buffer and the
#: multi-queue scheduler.  The file name avoids the ``*_smoke.json``
#: pattern, whose cells are read as direct ``trace/scheme`` replays.
FRONTEND_GOLDEN_TRACES = ("ts0", "lun2")
FRONTEND_GOLDEN_SCHEMES = ("ipu", "baseline")
FRONTEND_GOLDEN_QDS = (1, 8, 32)
FRONTEND_GOLDEN_METRICS = (
    "avg_latency_ms", "lat_p50_ms", "lat_p90_ms", "lat_p99_ms", "flushes",
    "cache_read_hits", "merged_writes", "coalesced_writes", "erases_slc",
    "programs_slc")
#: Replay-driver pins: every driver (open loop, closed loop, front-end)
#: under power loss, program failures and read faults, plus fault-free
#: closed-loop cells.  Each cell pins every scalar of
#: ``deterministic_dict()`` and a sha256 of each latency array.  The
#: file name avoids the ``*_smoke.json`` pattern.
DRIVER_GOLDEN_TRACES = ("ts0", "lun2")
DRIVER_GOLDEN_SCHEMES = ("baseline", "ipu")
DRIVER_GOLDEN_QD = 8
DRIVER_GOLDEN_POWER_LOSS_PER_MS = 0.02
#: ``(driver, fault-injected)`` per pinned cell family.
DRIVER_GOLDEN_CELLS = (("open", True), ("closed", True), ("frontend", True),
                       ("closed", False))


def regenerate_figures() -> None:
    """Rebuild every experiment's reference JSON at the small scale."""
    for eid in EXPERIMENTS:
        artifact = run(eid, scale=SCALE, seed=SEED)
        path = OUT / f"{eid}.json"
        artifact.save_json(path)
        print(f"wrote {path}")


def regenerate_golden() -> None:
    """Rebuild the smoke-scale golden metric pins under ``golden/``."""
    ctx = RunContext(scale=GOLDEN_SCALE, seed=GOLDEN_SEED)
    results = ctx.run_matrix()
    golden_dir = OUT / "golden"
    golden_dir.mkdir(exist_ok=True)
    for fig, metrics in GOLDEN_METRICS.items():
        cells = {
            f"{trace}/{scheme}": {m: getattr(results[(trace, scheme)], m)
                                  for m in metrics}
            for trace in TRACE_NAMES
            for scheme in SCHEME_ORDER
        }
        path = golden_dir / f"{fig}_{GOLDEN_SCALE}.json"
        path.write_text(json.dumps(
            {"experiment": fig, "scale": GOLDEN_SCALE, "seed": GOLDEN_SEED,
             "cells": cells},
            indent=2, sort_keys=True) + "\n")
        print(f"wrote {path}")
    path = golden_dir / "frontend_qd.json"
    path.write_text(json.dumps(
        {"experiment": "frontend-qd", "scale": GOLDEN_SCALE,
         "seed": GOLDEN_SEED, "cells": frontend_golden_cells()},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")
    path = golden_dir / "drivers_faults.json"
    faults = driver_golden_faults()
    path.write_text(json.dumps(
        {"experiment": "drivers-faults", "scale": GOLDEN_SCALE,
         "seed": GOLDEN_SEED, "queue_depth": DRIVER_GOLDEN_QD,
         "faults": faults.to_dict(),
         "cells": driver_golden_cells(faults)},
        indent=2, sort_keys=True) + "\n")
    print(f"wrote {path}")


def frontend_golden_cells() -> "dict[str, dict]":
    """Front-end pins keyed ``trace/scheme/qdN`` (replayed uncached)."""
    from repro.frontend import FrontendConfig

    cells = {}
    for qd in FRONTEND_GOLDEN_QDS:
        ctx = RunContext(scale=GOLDEN_SCALE, seed=GOLDEN_SEED,
                         frontend=FrontendConfig.from_qd(qd))
        for trace in FRONTEND_GOLDEN_TRACES:
            for scheme in FRONTEND_GOLDEN_SCHEMES:
                result = ctx.run(trace, scheme)
                cells[f"{trace}/{scheme}/qd{qd}"] = {
                    m: getattr(result, m) for m in FRONTEND_GOLDEN_METRICS}
    return cells


def driver_golden_faults():
    """``FaultConfig.from_rate(1.0)`` with a denser power-loss process."""
    from repro.faults import FaultConfig

    return dataclasses.replace(
        FaultConfig.from_rate(1.0),
        power_loss_per_ms=DRIVER_GOLDEN_POWER_LOSS_PER_MS)


def pinned_result(result) -> dict:
    """Every scalar of ``deterministic_dict()``; latency arrays as sha256."""
    out = result.deterministic_dict()
    for name in ("read_latencies", "write_latencies"):
        array = np.ascontiguousarray(getattr(result, name), dtype="<f8")
        out.pop(name)
        out[f"{name}_sha256"] = hashlib.sha256(array.tobytes()).hexdigest()
    return out


def driver_golden_cells(faults) -> "dict[str, dict]":
    """Driver pins keyed ``trace/scheme/driver/faults|clean`` (uncached)."""
    from repro.frontend import FrontendConfig

    cells = {}
    for driver, faulty in DRIVER_GOLDEN_CELLS:
        frontend = (FrontendConfig.from_qd(DRIVER_GOLDEN_QD)
                    if driver == "frontend" else None)
        queue_depth = DRIVER_GOLDEN_QD if driver == "closed" else None
        ctx = RunContext(scale=GOLDEN_SCALE, seed=GOLDEN_SEED,
                         faults=faults if faulty else None,
                         frontend=frontend)
        for trace in DRIVER_GOLDEN_TRACES:
            for scheme in DRIVER_GOLDEN_SCHEMES:
                result = ctx.run(trace, scheme, queue_depth=queue_depth)
                tag = "faults" if faulty else "clean"
                cells[f"{trace}/{scheme}/{driver}/{tag}"] = \
                    pinned_result(result)
    return cells


def regenerate_schema() -> None:
    """Rebuild ``schema_snapshot.json`` from the live result record."""
    SCHEMA_SNAPSHOT.write_text(schema_snapshot_text(), encoding="utf-8")
    print(f"wrote {SCHEMA_SNAPSHOT}")


def schema_in_sync() -> bool:
    """Whether the on-disk snapshot is what the live record writes.

    Runs at the end of *every* invocation: ``CACHE_SCHEMA_VERSION`` must
    never change without the snapshot refreshing in the same pass.
    """
    try:
        on_disk = SCHEMA_SNAPSHOT.read_text(encoding="utf-8")
    except OSError:
        return False
    return on_disk == schema_snapshot_text()


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--figures", action="store_true",
                        help="regenerate only the figure/table JSONs")
    parser.add_argument("--golden", action="store_true",
                        help="regenerate only the golden metric pins")
    parser.add_argument("--schema", action="store_true",
                        help="regenerate only schema_snapshot.json")
    args = parser.parse_args(argv)
    everything = not (args.figures or args.golden or args.schema)

    # Schema first: a stale snapshot must not outlive the pass that
    # changed the result shape.
    if everything or args.schema:
        regenerate_schema()
    if everything or args.golden:
        regenerate_golden()
    if everything or args.figures:
        regenerate_figures()

    if not schema_in_sync():
        print(f"schema out of sync after regeneration: {SCHEMA_SNAPSHOT.name}"
              " is not what the live result record writes", file=sys.stderr)
        print("  fix: bump CACHE_SCHEMA_VERSION if the schema moved, then "
              "rerun 'python results/regenerate.py --schema'; "
              "'python -m pytest tests/test_result_schema.py' names what "
              "drifted", file=sys.stderr)
        return 1
    print("schema snapshot in sync")
    return 0


if __name__ == "__main__":
    sys.exit(main())
