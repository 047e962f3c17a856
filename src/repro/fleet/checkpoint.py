"""Versioned, deterministic checkpoint files for resumable replays.

A checkpoint captures a paused device replay completely: pickling the
replay driver (:class:`repro.sim.simulator.OpenLoopReplay`) drags the
FTL — and through it the :class:`~repro.nand.state.RegionState` arrays,
mapping/allocator/GC state, any attached fault plan with its RNG stream
positions — plus the chip/channel resource clocks and the explicit
loop-carry accumulators.  No object in that graph stores a numpy view
into the region arrays — a ``Block`` keeps a reference to its
``RegionState`` and builds views on access — so default pickling
restores the same shared-memory shape as the original (not silent
copies), and a resumed replay is bit-identical to an uninterrupted one
(``tests/test_checkpoint.py`` proves both, the latter property-style).

File format: a :mod:`repro.frame` file, the layout result-cache entries
share, so a mismatched file fails loudly *before* any unpickling::

    magic   b"repro-ckpt\\n"
    u32 BE  header length
    header  canonical JSON: format version, cache schema version, kind,
            key, epoch, payload SHA-256
    payload pickle (protocol 5)

The cache schema version rides in the header because a checkpoint is
exactly as invalidation-sensitive as a cache entry: any behaviour
change that would orphan cached results must orphan snapshots too.
"""

from __future__ import annotations

import pickle
from pathlib import Path
from typing import Any

from ..errors import ReproError
from ..frame import FrameError, read_frame, write_frame

__all__ = ["CHECKPOINT_VERSION", "CheckpointError", "CheckpointStore",
           "load_checkpoint", "save_checkpoint"]

#: Leading bytes of every checkpoint file.
MAGIC = b"repro-ckpt\n"
#: Bump on any incompatible change to the file layout or payload shape
#: (2: the replay drivers share ``ReplayCore``, which carries the pricer;
#: 3: ``Block`` and ``RegionAllocator`` carry no victim or counter
#: watchers; 4: ``RegionState`` keeps only the columns something reads
#: as an array, and ``Block`` pickles as a plain slotted object; 5:
#: ``Block`` has no read counter, ``OpPricer`` no bus-model flag or
#: model reference, ``Resource`` no name and ``OpenLoopReplay`` no
#: idle-collection state; 6: a free ``Block`` holds one shared all-zero
#: tuple in place of its three per-page lists; 7: ``GcStats`` and
#: ``FtlStats`` drop the counters nothing read).
CHECKPOINT_VERSION = 7
#: Kind tag of fleet device snapshots (the only kind today).
DEVICE_KIND = "fleet-device"


class CheckpointError(ReproError):
    """A checkpoint file is missing, corrupt, or from another world."""


def _schema_version() -> int:
    from ..experiments.cache import CACHE_SCHEMA_VERSION
    return CACHE_SCHEMA_VERSION


def save_checkpoint(path: "str | Path", payload: Any, *, key: str,
                    epoch: int, kind: str = DEVICE_KIND) -> None:
    """Atomically write ``payload`` as a checkpoint file.

    ``key`` is the identity of the run being snapshotted (the fleet
    device cache key); ``epoch`` is the number of completed epochs the
    payload represents.
    """
    header = {"version": CHECKPOINT_VERSION, "schema": _schema_version(),
              "kind": kind, "key": key, "epoch": int(epoch)}
    write_frame(path, MAGIC, header, pickle.dumps(payload, protocol=5))


def load_checkpoint(path: "str | Path", *, key: "str | None" = None,
                    kind: str = DEVICE_KIND) -> tuple[dict, Any]:
    """Validate and load one checkpoint; returns ``(header, payload)``.

    Every mismatch — magic, torn header, payload digest, format version,
    cache schema version, kind, expected key — raises
    :class:`CheckpointError` before the payload is unpickled.
    """
    path = Path(path)
    try:
        header, blob = read_frame(path.read_bytes(), MAGIC)
    except OSError as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from None
    except FrameError as exc:
        raise CheckpointError(f"{path}: {exc}") from None
    if header.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"{path}: checkpoint format v{header.get('version')}, "
            f"this build reads v{CHECKPOINT_VERSION}")
    if header.get("schema") != _schema_version():
        raise CheckpointError(
            f"{path}: written under cache schema {header.get('schema')}, "
            f"current is {_schema_version()} — stale snapshot, rerun")
    if header.get("kind") != kind:
        raise CheckpointError(
            f"{path}: kind {header.get('kind')!r}, expected {kind!r}")
    if key is not None and header.get("key") != key:
        raise CheckpointError(
            f"{path}: snapshot of another run (key mismatch)")
    return header, pickle.loads(blob)


class CheckpointStore:
    """Directory of checkpoints for one fleet campaign.

    File names carry the device and epoch (``d<device>_e<epoch>.ckpt``
    under a per-key subdirectory), so :meth:`latest_epoch` needs no
    index file and concurrent devices never collide.
    """

    def __init__(self, root: "str | Path", key: str):
        self.root = Path(root)
        self.key = key
        self._dir = self.root / key[:24]

    def path(self, device: int, epoch: int) -> Path:
        """Path of the snapshot of ``device`` after ``epoch`` epochs."""
        return self._dir / f"d{device}_e{epoch}.ckpt"

    def save(self, device: int, epoch: int, payload: Any) -> Path:
        """Snapshot ``device`` after ``epoch`` completed epochs."""
        path = self.path(device, epoch)
        save_checkpoint(path, payload, key=self.key, epoch=epoch)
        return path

    def latest_epoch(self, device: int) -> "int | None":
        """Highest epoch with a snapshot for ``device``, or ``None``."""
        prefix = f"d{device}_e"
        best: "int | None" = None
        if not self._dir.is_dir():
            return None
        for entry in self._dir.iterdir():
            name = entry.name
            if not (name.startswith(prefix) and name.endswith(".ckpt")):
                continue
            try:
                epoch = int(name[len(prefix):-len(".ckpt")])
            except ValueError:
                continue
            if best is None or epoch > best:
                best = epoch
        return best

    def load(self, device: int, epoch: int) -> Any:
        """Load and validate one snapshot's payload."""
        _, payload = load_checkpoint(self.path(device, epoch), key=self.key)
        return payload
