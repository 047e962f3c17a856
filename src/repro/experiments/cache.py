"""Content-addressed on-disk cache for simulation results.

Replaying a ``(trace, scheme, scale, seed, P/E)`` cell is by far the most
expensive step of regenerating any figure, and it is fully deterministic:
the same device configuration and synthetic-trace parameters always
produce the same :class:`~repro.sim.simulator.SimulationResult`.  This
module therefore keys each cell by the SHA-256 of everything that
determines its outcome — the canonicalised :class:`~repro.config.SSDConfig`,
the trace profile and generation parameters, the scheme, the scale/seed
pair and a schema version — and stores the serialised result JSON under
``~/.cache/repro`` (or ``REPRO_CACHE_DIR`` / ``--cache-dir``).

The same store holds *trace facts*: what the harness reads off a
generated trace without replaying it (a sizing pilot's footprints, a
trace's Table 1/3 statistics), keyed by :func:`facts_key` and counted
apart from cells.

Invalidation is purely by key: any Table-2 field change, a different
seed, trace length or scheme yields a different digest, and a bump of
:data:`CACHE_SCHEMA_VERSION` (required whenever the simulator's observable
behaviour or the result schema changes) orphans every old entry at once.
Stale entries are never *wrong*, only unreachable; ``repro-ssd cache
--clear`` removes them.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import os
from dataclasses import dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable

from ..errors import ReproError
from ..frame import FrameError, read_frame, write_frame

if TYPE_CHECKING:
    from ..config import SSDConfig
    from ..traces.profiles import TraceProfile
    from ..units import Ms

#: Bump whenever simulator behaviour, the result schema or the entry
#: layout changes, so a code change can never be masked by a stale
#: cache entry (8: framed entries, base64 latency arrays).
CACHE_SCHEMA_VERSION = 8
#: Leading bytes of every cache entry.
MAGIC = b"repro-cache\n"


def result_schema() -> dict:
    """The result schema ``results/schema_snapshot.json`` records.

    ``SimulationResult``'s fields (the keys of every cached payload, in
    order), its ``NONDETERMINISTIC_FIELDS``, the keys of ``summary()``
    and :data:`CACHE_SCHEMA_VERSION`, read off the live class.  A change
    to any of the first three needs a version bump, and every bump a
    regenerated snapshot (``python results/regenerate.py --schema``).
    """
    # Imported here: the ``cache`` subcommand loads this module and must
    # not pay for the simulator.
    from ..sim.simulator import SimulationResult

    empty = SimulationResult("", "", 0, 0.0, 0.0)
    return {
        "cache_schema_version": CACHE_SCHEMA_VERSION,
        "fields": [f.name for f in fields(SimulationResult)],
        "nondeterministic_fields": list(
            SimulationResult.NONDETERMINISTIC_FIELDS),
        "summary_keys": list(empty.summary()),
    }


def schema_snapshot_text() -> str:
    """:func:`result_schema` as ``results/schema_snapshot.json`` holds it."""
    return json.dumps(result_schema(), indent=2, sort_keys=True) + "\n"


def default_cache_dir() -> Path:
    """``REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env).expanduser()
    return Path("~/.cache/repro").expanduser()


@functools.lru_cache
def _config_dict(config: SSDConfig) -> dict:
    """``config.to_dict()``, memoised per config value: a smoke
    ``run-all`` keys 131 cells over 10 distinct configs.  Callers only
    read the shared dict."""
    return config.to_dict()


def cell_key(config: SSDConfig, profile: TraceProfile, n_requests: int,
             interarrival_ms: Ms | None, scheme: str, scale: str,
             seed: int, length_factor: float = 1.0,
             pe: int | None = None,
             faults: dict | None = None,
             frontend: dict | None = None,
             queue_depth: int | None = None) -> str:
    """SHA-256 digest identifying one simulation cell.

    Everything that influences the replay goes in: the full nested config
    (so any Table-2 field change — or a per-cell config override — moves
    the key), the trace profile and generator parameters, the scheme, and
    the context identity.  Floats are serialised via ``repr`` inside
    ``json.dumps``, which is exact for round-trippable doubles.

    ``queue_depth`` is the depth of a closed-loop replay
    (``Simulator.run_closed``), or ``None`` for the open-loop timestamp
    replay, so the two drivers never share an entry.

    ``faults`` is the serialised :class:`repro.faults.FaultConfig` of a
    fault campaign, or ``None`` when injection is disabled.  Callers must
    canonicalise a disabled config to ``None`` (``RunContext`` does), so
    a rate-0 campaign shares keys — and results — with ordinary runs,
    and a fault campaign can never be served a cached no-fault result.

    ``frontend`` is the serialised :class:`repro.frontend.FrontendConfig`
    of a front-end replay, under the same contract: disabled configs are
    canonicalised to ``None``, so they share keys with direct-path runs
    (whose results they reproduce bit-identically), while any enabled
    knob combination gets its own key space.
    """
    return _digest({
        "schema": CACHE_SCHEMA_VERSION,
        "config": _config_dict(config),
        "profile": profile.to_dict(),
        "n_requests": int(n_requests),
        "interarrival_ms": interarrival_ms,
        "scheme": scheme,
        "scale": scale,
        "seed": int(seed),
        "length_factor": float(length_factor),
        "pe": pe,
        "faults": faults,
        "frontend": frontend,
        "queue_depth": queue_depth,
    })


def facts_key(kind: str, inputs: dict) -> str:
    """SHA-256 digest identifying one trace fact.

    ``kind`` names the fact (``"pilot"`` or ``"trace"``) and ``inputs``
    are every value its computation reads, JSON-ready.  The payload
    carries a ``kind`` field that no cell payload has, so a facts key
    never equals a cell key.
    """
    return _digest({"schema": CACHE_SCHEMA_VERSION, "kind": kind, **inputs})


def _digest(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache handle."""

    hits: int = 0
    misses: int = 0
    stores: int = 0


class ResultCache:
    """Content-addressed store of serialised simulation results.

    One framed file per cell (:func:`repro.frame.write_frame`), sharded
    by the first two hex digits of the key.  Writes go through a temp
    file + :func:`os.replace`, so concurrent workers (the parallel
    fan-out) can safely store the same entry: last writer wins with
    identical bytes.
    """

    def __init__(self, root: "Path | str | None" = None):
        self.root = Path(root).expanduser() if root is not None else default_cache_dir()
        #: Counters of cell and fleet-device entries.
        self.stats = CacheStats()
        #: Counters of trace-fact entries, kept apart so ``stats`` (the
        #: CLI's ``[cells]`` line) counts cells only.
        self.fact_stats = CacheStats()

    def path_for(self, key: str) -> Path:
        """On-disk location of one entry."""
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str,
            decode: "Callable[[Any], Any] | None" = None,
            stats: CacheStats | None = None) -> Any:
        """The stored payload, or None on a miss (counted in ``stats``,
        by default :attr:`stats`).

        The frame's magic, schema version, key and digest are checked
        before the payload is parsed; ``decode`` then turns it into the
        caller's value.  An entry that fails any step, or that ``decode``
        rejects with a :class:`~repro.errors.ReproError`, is a miss.
        """
        stats = self.stats if stats is None else stats
        path = self.path_for(key)
        try:
            header, body = read_frame(path.read_bytes(), MAGIC)
            if (header.get("schema"), header.get("key")) != (
                    CACHE_SCHEMA_VERSION, key):
                raise FrameError("entry of another schema or cell")
            payload = json.loads(body)
            if decode is not None:
                payload = decode(payload)
        except FileNotFoundError:
            stats.misses += 1
            return None
        except (OSError, ValueError, RecursionError, ReproError):
            # A torn, corrupt or rejected entry is a miss; drop it so the
            # fresh result replaces it.
            stats.misses += 1
            with contextlib.suppress(OSError):
                path.unlink()
            return None
        stats.hits += 1
        return payload

    def put(self, key: str, payload: dict,
            stats: CacheStats | None = None) -> None:
        """Store one payload atomically (counted in ``stats``, by default
        :attr:`stats`)."""
        body = json.dumps(payload, separators=(",", ":")).encode()
        try:
            write_frame(self.path_for(key), MAGIC,
                        {"schema": CACHE_SCHEMA_VERSION, "key": key}, body)
        except FileNotFoundError:  # a concurrent clear took the temp file
            return
        (self.stats if stats is None else stats).stores += 1

    def __len__(self) -> int:
        """Number of entries on disk."""
        return sum(1 for _ in self.root.glob("*/*.json"))

    def clear(self) -> int:
        """Delete every entry, and the temp file of any writer killed
        before its rename; returns the number of entries removed."""
        removed = 0
        for path in [*self.root.glob("*/*.json"), *self.root.glob("*/*.tmp")]:
            with contextlib.suppress(OSError):
                path.unlink()
                if path.suffix == ".json":
                    removed += 1
        return removed
