"""The result-schema contract: the live record against the committed snapshot.

The result cache stores ``SimulationResult.to_dict()`` payloads under
keys that include ``CACHE_SCHEMA_VERSION`` (``docs/CACHING.md``).
Adding or removing a result field without bumping the version would mix
old and new payload shapes in one key space; bumping it without
regenerating ``results/schema_snapshot.json`` would leave this check
comparing against a stale snapshot.  The snapshot must hold exactly the
bytes :func:`~repro.experiments.cache.schema_snapshot_text` writes;
:func:`schema_problem` says which side to fix, and the trip scenarios
below pin each message.
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.experiments import cache
from repro.experiments.cache import result_schema, schema_snapshot_text
from repro.sim import simulator

SNAPSHOT = Path(__file__).resolve().parents[1] / "results" / "schema_snapshot.json"
REGENERATE = "python results/regenerate.py --schema"


def _drift(live: dict, snap: dict) -> str:
    """Names added to or removed from each list ('' when none moved)."""
    parts = []
    for key, label in (("fields", "field"),
                       ("nondeterministic_fields", "nondet field"),
                       ("summary_keys", "summary key")):
        now, kept = set(live[key]), set(snap.get(key) or ())
        if now - kept:
            parts.append(f"{label}s added: {', '.join(sorted(now - kept))}")
        if kept - now:
            parts.append(f"{label}s removed: {', '.join(sorted(kept - now))}")
    return "; ".join(parts)


def schema_problem(snapshot: Path) -> "str | None":
    """What to fix so ``snapshot`` holds what the live record writes.

    None when its bytes are :func:`schema_snapshot_text`'s.
    """
    if not snapshot.is_file():
        return (f"schema snapshot {snapshot.name} is missing — create it "
                f"with '{REGENERATE}'")
    text = snapshot.read_text(encoding="utf-8")
    if text == schema_snapshot_text():
        return None
    live, snap = result_schema(), json.loads(text)
    version = live["cache_schema_version"]
    recorded = snap.get("cache_schema_version")
    drift = _drift(live, snap)
    if drift and version == recorded:
        return (f"SimulationResult schema changed ({drift}) without a "
                f"CACHE_SCHEMA_VERSION bump — bump it in "
                f"src/repro/experiments/cache.py (currently {version}) and "
                f"regenerate the snapshot with '{REGENERATE}'")
    if version != recorded:
        moved = f"{drift}; " if drift else ""
        return (f"{moved}CACHE_SCHEMA_VERSION is {version} but the snapshot "
                f"records {recorded} — regenerate {snapshot.name} with "
                f"'{REGENERATE}'")
    return (f"{snapshot.name} lists the same names in another order or "
            f"layout — regenerate it with '{REGENERATE}'")


def write_snapshot(path: Path) -> None:
    """What ``results/regenerate.py --schema`` writes."""
    path.write_text(schema_snapshot_text(), encoding="utf-8")


def test_committed_snapshot_matches_the_live_record():
    problem = schema_problem(SNAPSHOT)
    assert problem is None, problem


def test_live_schema_reads_the_record():
    live = result_schema()
    assert live["cache_schema_version"] == cache.CACHE_SCHEMA_VERSION
    assert live["fields"] == [
        f.name for f in dataclasses.fields(simulator.SimulationResult)]
    assert live["nondeterministic_fields"] == ["wall_seconds",
                                               "gc_scan_seconds"]
    assert live["summary_keys"][:3] == ["scheme", "trace", "requests"]


# --------------------------------------------------------------------------
# trip scenarios, against a snapshot taken of the live record


@pytest.fixture
def snapshot(tmp_path) -> Path:
    path = tmp_path / "schema_snapshot.json"
    write_snapshot(path)
    return path


def add_field(monkeypatch) -> None:
    @dataclasses.dataclass
    class Widened(simulator.SimulationResult):
        schema_probe_field: int = 0

    monkeypatch.setattr(simulator, "SimulationResult", Widened)


def bump_version(monkeypatch) -> None:
    monkeypatch.setattr(cache, "CACHE_SCHEMA_VERSION",
                        cache.CACHE_SCHEMA_VERSION + 1)


def test_in_sync_right_after_a_snapshot(snapshot):
    assert schema_problem(snapshot) is None


def test_missing_snapshot_says_create_it(tmp_path):
    problem = schema_problem(tmp_path / "absent.json")
    assert "missing" in problem and REGENERATE in problem


def test_field_added_without_a_bump_says_bump(snapshot, monkeypatch):
    add_field(monkeypatch)
    problem = schema_problem(snapshot)
    assert "without a CACHE_SCHEMA_VERSION bump" in problem
    assert "schema_probe_field" in problem


def test_field_added_with_a_bump_says_regenerate(snapshot, monkeypatch):
    add_field(monkeypatch)
    bump_version(monkeypatch)
    problem = schema_problem(snapshot)
    assert "schema_probe_field" in problem and "regenerate" in problem
    assert "bump it" not in problem
    # ... and regenerating re-arms the check.
    write_snapshot(snapshot)
    assert schema_problem(snapshot) is None


def test_bump_alone_says_regenerate(snapshot, monkeypatch):
    bump_version(monkeypatch)
    problem = schema_problem(snapshot)
    recorded = cache.CACHE_SCHEMA_VERSION - 1
    assert f"snapshot records {recorded}" in problem
    assert REGENERATE in problem


def test_summary_key_drift_says_bump(snapshot, monkeypatch):
    class Renamed(simulator.SimulationResult):
        def summary(self):
            out = super().summary()
            out["n_requests"] = out.pop("requests")
            return out

    monkeypatch.setattr(simulator, "SimulationResult", Renamed)
    problem = schema_problem(snapshot)
    assert "summary keys added: n_requests" in problem
    assert "summary keys removed: requests" in problem
    assert "without a CACHE_SCHEMA_VERSION bump" in problem


def test_reordered_snapshot_says_regenerate(snapshot):
    snap = json.loads(snapshot.read_text(encoding="utf-8"))
    snap["fields"].reverse()
    snapshot.write_text(json.dumps(snap, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
    problem = schema_problem(snapshot)
    assert "another order" in problem and REGENERATE in problem


def test_reformatted_snapshot_says_regenerate(snapshot):
    # Same lists, other bytes: regenerate.py --schema would rewrite it.
    snapshot.write_text(json.dumps(result_schema()), encoding="utf-8")
    problem = schema_problem(snapshot)
    assert "layout" in problem and REGENERATE in problem
