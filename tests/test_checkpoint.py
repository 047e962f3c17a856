"""Checkpoint/restore: a replay paused at any point and resumed from a
pickle (or a checkpoint file) must continue bit-identically.

This is the property the whole fleet layer leans on, so it is driven
property-style: hypothesis sweeps the split point, seed, scheme and
fault-injection state, and every combination must produce the same
``deterministic_dict`` as the uninterrupted replay — not approximately,
exactly.  Separate groups pin that no object a checkpoint reaches
stores a view into a region array (so the restored graph shares the
region's memory, as the original does) and the file-format validation
of :mod:`repro.fleet.checkpoint` (every corruption fails loudly *before*
the payload unpickles, or loads the identical payload).
"""

from __future__ import annotations

import functools
import io
import pickle
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SCHEMES as factories
from repro.config import scaled_config
from repro.faults import FaultConfig, attach_faults
from repro.fleet import checkpoint as checkpoint_mod
from repro.fleet.checkpoint import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointStore,
    MAGIC,
    load_checkpoint,
    save_checkpoint,
)
from repro.frontend import FrontendConfig
from repro.frontend.simulate import FrontendSimulator
from repro.nand.block import BlockState
from repro.nand.state import RegionState
from repro.sim import ClosedLoopReplay, OpenLoopReplay
from repro.traces.model import Trace
from repro.traces.profiles import profile
from repro.traces.synth import generate

from conftest import tiny_config

SETTINGS = settings(max_examples=12, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

SCHEME_NAMES = ("baseline", "mga", "ipu", "delta")


def short_trace(seed=11, n_requests=600):
    return generate(profile("ts0"), n_requests=n_requests, seed=seed,
                    mean_interarrival_ms=0.6)


def split(trace: Trace, at: int) -> tuple[Trace, Trace]:
    def cut(a, b):
        return Trace(trace.times_ms[a:b], trace.is_write[a:b],
                     trace.offsets[a:b], trace.sizes[a:b], name=trace.name)
    return cut(0, at), cut(at, len(trace))


def build_replay(scheme, seed=0, fault_rate=0.0, closed=False,
                 frontend_qd=None):
    cfg = tiny_config(seed=seed)
    ftl = factories[scheme](cfg)
    if fault_rate > 0:
        attach_faults(ftl, FaultConfig.from_rate(fault_rate), seed=seed)
    if frontend_qd is not None:
        return FrontendSimulator(ftl, FrontendConfig.from_qd(frontend_qd),
                                 cfg)
    if closed:
        return ClosedLoopReplay(ftl, queue_depth=4, config=cfg)
    return OpenLoopReplay(ftl, cfg)


class TestResumeBitIdentity:
    @SETTINGS
    @given(scheme=st.sampled_from(SCHEME_NAMES),
           seed=st.integers(0, 2**32 - 1),
           frac=st.floats(0.05, 0.95),
           fault_rate=st.sampled_from([0.0, 1.5]))
    def test_pickle_resume_equals_uninterrupted(self, scheme, seed, frac,
                                                fault_rate):
        """Snapshot anywhere, resume, finish: same bytes as never pausing."""
        trace = short_trace(seed=seed % 1000 + 1)
        first, rest = split(trace, int(len(trace) * frac))

        ref = build_replay(scheme, seed=seed, fault_rate=fault_rate)
        ref.feed(trace)
        expected = ref.result(trace.name).deterministic_dict()

        paused = build_replay(scheme, seed=seed, fault_rate=fault_rate)
        paused.feed(first)
        resumed = pickle.loads(pickle.dumps(paused, protocol=5))
        resumed.feed(rest)
        assert resumed.result(trace.name).deterministic_dict() == expected

    @SETTINGS
    @given(seed=st.integers(0, 2**16), frac=st.floats(0.1, 0.9),
           fault_rate=st.sampled_from([0.0, 1.5]))
    def test_closed_loop_resume(self, seed, frac, fault_rate):
        trace = short_trace(seed=seed % 100 + 1, n_requests=400)
        first, rest = split(trace, int(len(trace) * frac))

        ref = build_replay("ipu", seed=seed, fault_rate=fault_rate,
                           closed=True)
        ref.feed(trace)
        expected = ref.result(trace.name).deterministic_dict()

        paused = build_replay("ipu", seed=seed, fault_rate=fault_rate,
                              closed=True)
        paused.feed(first)
        resumed = pickle.loads(pickle.dumps(paused, protocol=5))
        resumed.feed(rest)
        assert resumed.result(trace.name).deterministic_dict() == expected

    @SETTINGS
    @given(scheme=st.sampled_from(SCHEME_NAMES),
           seed=st.integers(0, 2**32 - 1),
           frac=st.floats(0.05, 0.95),
           fault_rate=st.sampled_from([0.0, 1.5]),
           queue_depth=st.sampled_from([1, 4, 16]))
    def test_frontend_resume(self, scheme, seed, frac, fault_rate,
                             queue_depth):
        """The front-end replay (write buffer + scheduler, requests in
        flight at the split) resumes bit-identically too."""
        trace = short_trace(seed=seed % 1000 + 1, n_requests=500)
        first, rest = split(trace, int(len(trace) * frac))

        ref = build_replay(scheme, seed=seed, fault_rate=fault_rate,
                           frontend_qd=queue_depth)
        expected = ref.run(trace).deterministic_dict()

        paused = build_replay(scheme, seed=seed, fault_rate=fault_rate,
                              frontend_qd=queue_depth)
        paused.feed(first)
        resumed = pickle.loads(pickle.dumps(paused, protocol=5))
        resumed.feed(rest)
        resumed.finish()
        assert resumed.result(trace.name).deterministic_dict() == expected


class TestViewAliasing:
    def test_blocks_share_region_after_unpickle(self):
        """After a round trip every block's region is its FlashArray's
        region object, and the block's views read that region: a program
        through the FlashArray shows in ``block.valid``/``block.slot_lsn``."""
        replay = build_replay("ipu", seed=1)
        replay.feed(short_trace(seed=2, n_requests=300))
        clone = pickle.loads(pickle.dumps(replay, protocol=5))
        flash = clone.ftl.flash
        for block in flash.blocks:
            region = flash.slc_state if block.is_slc else flash.mlc_state
            assert block.region is region
        block = next(b for b in flash.region_blocks(True)
                     if b.state is BlockState.FREE)
        block.open_as(0)
        flash.program(block.block_id, 0, [1], [10**6], 1.0)
        assert block.valid[0, 1] and not block.valid[0, 0]
        assert block.slot_lsn[0, 1] == 10**6
        assert np.shares_memory(block.valid, flash.slc_state.valid)
        flash.verify_array_state()

    def test_unpickled_state_equals_original(self):
        replay = build_replay("mga", seed=9)
        replay.feed(short_trace(seed=4, n_requests=300))
        clone = pickle.loads(pickle.dumps(replay, protocol=5))
        for b1, b2 in zip(replay.ftl.flash.blocks,
                          clone.ftl.flash.blocks):
            assert b1.prog_mask == b2.prog_mask
            np.testing.assert_array_equal(b1.valid, b2.valid)
            np.testing.assert_array_equal(b1.slot_lsn, b2.slot_lsn)


class TestPickleGraph:
    """No object a checkpoint reaches stores a view into a RegionState
    column: default pickling would write it as a private copy, and the
    restored graph would stop sharing memory with the region arrays."""

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_no_pickled_array_aliases_a_region_column(self, scheme):
        cfg = scaled_config("smoke", seed=3)
        ftl = factories[scheme](cfg)
        attach_faults(ftl, FaultConfig.from_rate(1.5), seed=3)
        replay = OpenLoopReplay(ftl, cfg)
        replay.feed(short_trace(seed=5, n_requests=3000))
        flash = ftl.flash
        columns = [getattr(region, name)
                   for region in (flash.slc_state, flash.mlc_state)
                   for name in RegionState.__slots__
                   if isinstance(getattr(region, name), np.ndarray)]
        aliases = []

        class AliasProbe(pickle.Pickler):
            def persistent_id(self, obj):
                if (isinstance(obj, np.ndarray)
                        and not any(obj is col for col in columns)
                        and any(np.shares_memory(obj, col)
                                for col in columns)):
                    aliases.append(obj.shape)
                return None

        AliasProbe(io.BytesIO(), protocol=5).dump(replay)
        assert aliases == []


class TestCheckpointFile:
    def _roundtrip(self, tmp_path, payload, key="k1"):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, payload, key=key, epoch=3)
        return path

    def test_roundtrip(self, tmp_path):
        payload = {"numbers": [1, 2, 3], "array": np.arange(5)}
        path = self._roundtrip(tmp_path, payload)
        header, loaded = load_checkpoint(path, key="k1")
        assert header["epoch"] == 3
        assert header["version"] == CHECKPOINT_VERSION
        assert loaded["numbers"] == [1, 2, 3]
        np.testing.assert_array_equal(loaded["array"], np.arange(5))

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(tmp_path / "absent.ckpt")

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_truncated_header(self, tmp_path):
        path = tmp_path / "x.ckpt"
        path.write_bytes(MAGIC + b"\x00")
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)

    def test_key_mismatch(self, tmp_path):
        path = self._roundtrip(tmp_path, {"a": 1}, key="right")
        with pytest.raises(CheckpointError, match="key mismatch"):
            load_checkpoint(path, key="wrong")

    def test_corrupt_payload(self, tmp_path):
        path = self._roundtrip(tmp_path, {"a": 1})
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="digest"):
            load_checkpoint(path, key="k1")

    def test_stale_schema(self, tmp_path, monkeypatch):
        path = self._roundtrip(tmp_path, {"a": 1})
        import repro.experiments.cache as cache_mod
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION", 9999)
        with pytest.raises(CheckpointError, match="stale snapshot"):
            load_checkpoint(path, key="k1")

    def test_older_format_version_refused(self, tmp_path, monkeypatch):
        """A version-4 file (a Block that still carried its read counter,
        an OpPricer its bus-model flag) is refused from its header,
        before the payload unpickles."""
        assert CHECKPOINT_VERSION == 5
        monkeypatch.setattr(checkpoint_mod, "CHECKPOINT_VERSION", 4)
        path = self._roundtrip(tmp_path, {"a": 1})
        monkeypatch.undo()

        def unpickle(_blob):
            raise AssertionError("payload unpickled before the version check")

        monkeypatch.setattr(pickle, "loads", unpickle)
        with pytest.raises(CheckpointError, match="format v4, this build "
                                                  "reads v5"):
            load_checkpoint(path, key="k1")

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "x.ckpt"
        save_checkpoint(path, {"a": 1}, key="k", epoch=0, kind="other")
        with pytest.raises(CheckpointError, match="kind"):
            load_checkpoint(path, key="k")


FUZZ_KEY = "f" * 64


@functools.lru_cache(maxsize=None)
def real_checkpoint() -> "tuple[bytes, bytes]":
    """A device snapshot as a fleet campaign writes it (a paused faulty
    replay), and the pickle of the payload it loads back to."""
    replay = build_replay("ipu", seed=7, fault_rate=1.5)
    replay.feed(short_trace(seed=8, n_requests=200))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d0_e2.ckpt"
        save_checkpoint(path, replay, key=FUZZ_KEY, epoch=2)
        _, payload = load_checkpoint(path, key=FUZZ_KEY)
        return path.read_bytes(), pickle.dumps(payload, protocol=5)


#: Byte positions, half of them in the frame's head (magic, length,
#: header); every payload byte is covered by the header's digest.
positions = st.one_of(st.integers(0, 511), st.integers(0, 2**31))

mutations = st.one_of(
    st.tuples(st.just("truncate"), positions),
    st.tuples(st.just("delete"), positions),
    st.tuples(st.just("change"), positions, st.integers(1, 255)),
)


class TestCheckpointFuzz:
    @settings(max_examples=300, deadline=None)
    @given(mutation=mutations)
    def test_mutated_file_fails_loudly_or_loads_identically(
            self, tmp_path_factory, mutation):
        """Any truncation, one-byte deletion or one-byte change of a real
        checkpoint raises :class:`CheckpointError` naming the file, or
        loads the identical payload (a change the header tolerates, such
        as another epoch number)."""
        raw, expected = real_checkpoint()
        at = mutation[1] % len(raw)
        if mutation[0] == "truncate":
            mutated = raw[:at]
        elif mutation[0] == "delete":
            mutated = raw[:at] + raw[at + 1:]
        else:
            mutated = bytearray(raw)
            mutated[at] ^= mutation[2]
        path = tmp_path_factory.getbasetemp() / "d0_e2.ckpt"
        path.write_bytes(bytes(mutated))
        try:
            _, payload = load_checkpoint(path, key=FUZZ_KEY)
        except CheckpointError as exc:
            assert str(path) in str(exc)
        else:
            assert pickle.dumps(payload, protocol=5) == expected


class TestCheckpointStore:
    def test_latest_epoch_scans_files(self, tmp_path):
        store = CheckpointStore(tmp_path, key="a" * 64)
        assert store.latest_epoch(0) is None
        store.save(0, 1, {"v": 1})
        store.save(0, 4, {"v": 4})
        store.save(1, 2, {"v": 2})
        assert store.latest_epoch(0) == 4
        assert store.latest_epoch(1) == 2
        assert store.load(0, 4) == {"v": 4}

    def test_devices_do_not_collide(self, tmp_path):
        store = CheckpointStore(tmp_path, key="b" * 64)
        store.save(1, 3, {"device": 1})
        assert store.latest_epoch(11) is None
