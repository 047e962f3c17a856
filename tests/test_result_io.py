"""SimulationResult (de)serialisation and cache-key stability."""

from __future__ import annotations

import dataclasses
import json

import numpy as np
import pytest

from repro import SCHEMES, SSDConfig
from repro.errors import SimulationError
from repro.experiments.cache import CACHE_SCHEMA_VERSION, cell_key
from repro.sim import Simulator
from repro.sim.simulator import SimulationResult
from repro.traces.profiles import profile

from conftest import tiny_config


@pytest.fixture(scope="module")
def result():
    """One real replay's result (IPU over a short ts0 burst)."""
    from repro.traces import generate

    trace = generate(profile("ts0"), n_requests=800, seed=5,
                     mean_interarrival_ms=0.6)
    return Simulator(SCHEMES["ipu"](tiny_config())).run(trace)


class TestRoundTrip:
    def test_json_round_trip_is_exact(self, result):
        payload = json.loads(json.dumps(result.to_dict()))
        back = SimulationResult.from_dict(payload)
        assert back.to_dict() == result.to_dict()

    def test_arrays_and_level_writes_restore_types(self, result):
        back = SimulationResult.from_dict(result.to_dict())
        assert isinstance(back.read_latencies, np.ndarray)
        assert back.read_latencies.dtype == np.float64
        assert np.array_equal(back.read_latencies, result.read_latencies)
        assert np.array_equal(back.write_latencies, result.write_latencies)
        assert back.level_writes == result.level_writes
        assert all(isinstance(k, int) for k in back.level_writes)

    def test_headline_metrics_survive(self, result):
        back = SimulationResult.from_dict(result.to_dict())
        assert back.avg_latency_ms == result.avg_latency_ms
        assert back.avg_read_latency_ms == result.avg_read_latency_ms
        assert back.avg_write_latency_ms == result.avg_write_latency_ms
        assert back.read_error_rate == result.read_error_rate
        assert back.summary() == result.summary()

    def test_unknown_field_rejected(self, result):
        payload = result.to_dict()
        payload["frobnication_index"] = 1
        with pytest.raises(SimulationError):
            SimulationResult.from_dict(payload)

    def test_deterministic_dict_drops_wall_clock(self, result):
        det = result.deterministic_dict()
        for name in SimulationResult.NONDETERMINISTIC_FIELDS:
            assert name not in det
        assert det["n_requests"] == result.n_requests


KEY_ARGS = dict(n_requests=4000, interarrival_ms=0.52, scheme="ipu",
                scale="smoke", seed=1, length_factor=1.0, pe=None)


def key_for(config: SSDConfig, **overrides) -> str:
    kwargs = {**KEY_ARGS, **overrides}
    return cell_key(config, profile(kwargs.pop("trace", "ts0")), **kwargs)


class TestCellKey:
    def test_same_inputs_same_key(self):
        # Two independently constructed but equal configs hash alike.
        assert key_for(tiny_config()) == key_for(tiny_config())
        k = key_for(tiny_config())
        assert len(k) == 64 and int(k, 16) >= 0

    def test_equal_configs_share_one_memo_entry(self):
        from repro.experiments.cache import _config_dict

        _config_dict.cache_clear()
        first, second = tiny_config(), tiny_config()
        assert first is not second
        assert key_for(first) == key_for(second)
        assert _config_dict.cache_info().currsize == 1

    def test_every_table2_field_moves_the_key(self):
        """Changing any Table-2 configuration field must change the key."""
        base = tiny_config()
        variants = {
            "total_blocks": dataclasses.replace(
                base, geometry=dataclasses.replace(base.geometry,
                                                   total_blocks=34)),
            "slc_ratio": dataclasses.replace(
                base, cache=dataclasses.replace(base.cache, slc_ratio=0.20)),
            "slc_pages_per_block": dataclasses.replace(
                base, geometry=dataclasses.replace(base.geometry,
                                                   slc_pages_per_block=32)),
            "page_size": dataclasses.replace(
                base, geometry=dataclasses.replace(base.geometry,
                                                   page_size=32 * 1024)),
            "gc_threshold": dataclasses.replace(
                base, cache=dataclasses.replace(base.cache,
                                                gc_threshold=0.08)),
            "wear_leveling": dataclasses.replace(
                base, cache=dataclasses.replace(
                    base.cache, static_wear_leveling=False)),
            "slc_read_ms": dataclasses.replace(
                base, timing=dataclasses.replace(base.timing,
                                                 slc_read_ms=0.030)),
            "mlc_write_ms": dataclasses.replace(
                base, timing=dataclasses.replace(base.timing,
                                                 mlc_write_ms=1.1)),
            "erase_ms": dataclasses.replace(
                base, timing=dataclasses.replace(base.timing, erase_ms=12.0)),
            "ecc_max_ms": dataclasses.replace(
                base, timing=dataclasses.replace(base.timing,
                                                 ecc_max_ms=0.1)),
            "initial_pe_cycles": base.with_pe_cycles(2000),
        }
        reference = key_for(base)
        keys = {name: key_for(cfg) for name, cfg in variants.items()}
        for name, key in keys.items():
            assert key != reference, f"{name} change did not move the key"
        assert len(set(keys.values())) == len(keys), "variant keys collide"

    def test_cell_identity_moves_the_key(self):
        base = tiny_config()
        reference = key_for(base)
        assert key_for(base, scheme="mga") != reference
        assert key_for(base, seed=2) != reference
        assert key_for(base, scale="small") != reference
        assert key_for(base, n_requests=4001) != reference
        assert key_for(base, interarrival_ms=0.53) != reference
        assert key_for(base, length_factor=0.35) != reference
        assert key_for(base, pe=8000) != reference
        assert key_for(base, trace="lun2") != reference

    def test_schema_version_guards_the_key(self, monkeypatch):
        import repro.experiments.cache as cache_mod

        base = tiny_config()
        reference = key_for(base)
        monkeypatch.setattr(cache_mod, "CACHE_SCHEMA_VERSION",
                            CACHE_SCHEMA_VERSION + 1)
        assert key_for(base) != reference
