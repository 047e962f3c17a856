"""Golden regression guard: the smoke-scale cells behind the committed
fig5/fig9 reference artifacts must reproduce their headline metrics
exactly (within 1e-9), so refactors cannot silently shift paper numbers.
The front-end cells in ``frontend_qd.json`` and the replay-driver cells
in ``drivers_faults.json`` (open loop, closed loop and front-end under
injected faults) must reproduce bit for bit.

Regenerate the golden files with ``python results/regenerate.py --golden``
only for a *deliberate* behaviour change; the diff is the audit trail.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments.runner import RunContext
from repro.faults import FaultConfig
from repro.frontend import FrontendConfig

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "results" / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*_smoke.json"))

TOLERANCE = 1e-9


@pytest.fixture(scope="module")
def smoke_matrix():
    """One sequential replay of the full smoke matrix (shared)."""
    ctx = RunContext(scale="smoke", seed=1)
    return ctx.run_matrix()


def test_golden_files_are_committed():
    assert len(GOLDEN_FILES) >= 2, (
        f"expected the committed fig5/fig9 golden files in {GOLDEN_DIR}")


def test_disabled_frontend_reproduces_golden_cells(smoke_matrix):
    """A carried-but-disabled ``FrontendConfig`` must be the direct
    replay path bit-for-bit: the golden cells reproduce exactly, not
    just within tolerance."""
    from repro.frontend import FrontendConfig

    ctx = RunContext(scale="smoke", seed=1)
    ctx.frontend = FrontendConfig()      # enabled=False
    for cell in (("ts0", "ipu"), ("lun2", "baseline")):
        assert ctx.run(*cell).deterministic_dict() == \
            smoke_matrix[cell].deterministic_dict()
        # And it is the same cache cell: disabled canonicalises to None.
        assert ctx.cell_key(*cell) == \
            RunContext(scale="smoke", seed=1).cell_key(*cell)


@pytest.mark.parametrize("path", GOLDEN_FILES, ids=lambda p: p.stem)
def test_smoke_cells_match_golden(path, smoke_matrix):
    golden = json.loads(path.read_text())
    assert golden["scale"] == "smoke"
    mismatches = []
    for cell, metrics in golden["cells"].items():
        trace, scheme = cell.split("/")
        result = smoke_matrix[(trace, scheme)]
        for metric, expected in metrics.items():
            got = getattr(result, metric)
            if abs(got - expected) > TOLERANCE:
                mismatches.append(
                    f"{cell}.{metric}: golden {expected!r} != {got!r}")
    assert not mismatches, (
        "headline metrics drifted from the committed golden values "
        "(intentional change? re-run results/regenerate.py --golden):\n"
        + "\n".join(mismatches))


def test_frontend_cells_match_golden_exactly():
    """Front-end replays (write buffer + scheduler, QD 1/8/32) reproduce
    the committed pins exactly: a hot-path rework must not move a bit."""
    golden = json.loads((GOLDEN_DIR / "frontend_qd.json").read_text())
    assert golden["scale"] == "smoke"
    contexts: dict[int, RunContext] = {}
    mismatches = []
    for cell, metrics in golden["cells"].items():
        trace, scheme, qd_tag = cell.split("/")
        qd = int(qd_tag.removeprefix("qd"))
        if qd not in contexts:
            contexts[qd] = RunContext(scale="smoke", seed=golden["seed"],
                                      frontend=FrontendConfig.from_qd(qd))
        result = contexts[qd].run(trace, scheme)
        for metric, expected in metrics.items():
            got = getattr(result, metric)
            if got != expected:
                mismatches.append(
                    f"{cell}.{metric}: golden {expected!r} != {got!r}")
    assert len(golden["cells"]) == 12
    assert not mismatches, (
        "front-end metrics drifted from the committed golden values:\n"
        + "\n".join(mismatches))


def _pinned(result) -> dict:
    """``deterministic_dict()`` with each latency array as its sha256."""
    out = result.deterministic_dict()
    for name in ("read_latencies", "write_latencies"):
        array = np.ascontiguousarray(getattr(result, name), dtype="<f8")
        out.pop(name)
        out[f"{name}_sha256"] = hashlib.sha256(array.tobytes()).hexdigest()
    return out


def test_driver_cells_match_golden_exactly():
    """Every replay driver — open loop, closed loop and front-end — under
    power loss, program failures and read faults (and the closed loop
    fault-free) reproduces every pinned scalar and latency digest."""
    golden = json.loads((GOLDEN_DIR / "drivers_faults.json").read_text())
    assert golden["scale"] == "smoke"
    faults = FaultConfig.from_dict(golden["faults"])
    qd = golden["queue_depth"]
    contexts: dict[tuple, RunContext] = {}
    mismatches = []
    for cell, pinned in golden["cells"].items():
        trace, scheme, driver, tag = cell.split("/")
        key = (driver, tag)
        if key not in contexts:
            contexts[key] = RunContext(
                scale="smoke", seed=golden["seed"],
                faults=faults if tag == "faults" else None,
                frontend=(FrontendConfig.from_qd(qd)
                          if driver == "frontend" else None))
        result = contexts[key].run(
            trace, scheme, queue_depth=qd if driver == "closed" else None)
        got = _pinned(result)
        for name in sorted(got.keys() | pinned.keys()):
            if got.get(name) != pinned.get(name):
                mismatches.append(f"{cell}.{name}: golden "
                                  f"{pinned.get(name)!r} != {got.get(name)!r}")
    assert len(golden["cells"]) == 16
    assert not mismatches, (
        "replay-driver results drifted from the committed golden values:\n"
        + "\n".join(mismatches))
