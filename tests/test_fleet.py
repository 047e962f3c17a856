"""Fleet layer: sharding algebra, config round-trips, and the campaign
determinism contracts (resume, parallel fan-out and warm cache must all
reproduce the uninterrupted sequential campaign byte-for-byte).
"""

from __future__ import annotations

import json

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError, ExperimentError
from repro.experiments.cache import ResultCache
from repro.fleet import FleetConfig, TenantSpec, run_campaign, shard_of
from repro.fleet.campaign import aggregate_fleet, campaign_json
from repro.fleet.runner import (
    LAT_HIST_EDGES_MS,
    histogram_latencies,
    quantile_from_histogram,
    run_device,
)
from repro.fleet.shard import OffsetStream, ShardedStream, split_extent
from repro.traces import InMemoryStream, materialize
from repro.traces.profiles import profile
from repro.traces.synth import generate
from repro.units import KIB

SETTINGS = settings(max_examples=50, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: A campaign small enough for CI but long enough to cross epochs.
SMALL = dict(n_devices=2, tenants=(TenantSpec("ts0"), TenantSpec("usr0", 0.5)),
             scheme="ipu", scale="smoke", seed=7, n_epochs=3,
             epoch_requests=500)


# -- sharding algebra -------------------------------------------------------


class TestShardOf:
    @SETTINGS
    @given(offset=st.integers(0, 2**44), stripe=st.sampled_from([4, 64, 256]),
           n=st.integers(1, 8))
    def test_every_byte_lands_exactly_once(self, offset, stripe, n):
        stripe_bytes = stripe * KIB
        device, local = shard_of(offset, stripe_bytes, n)
        assert 0 <= device < n
        # Invert: device-local stripe index g//n on device g%n maps back.
        g, r = divmod(offset, stripe_bytes)
        assert device == g % n
        assert local == (g // n) * stripe_bytes + r

    @SETTINGS
    @given(offset=st.integers(0, 2**40), size=st.integers(1, 10 * 256 * KIB),
           n=st.integers(1, 6))
    def test_split_extent_partitions_the_request(self, offset, size, n):
        stripe_bytes = 256 * KIB
        pieces = list(split_extent(offset, size, stripe_bytes, n))
        assert sum(length for _, _, length in pieces) == size
        # Pieces are the stripes the extent crosses, in order, and each
        # piece agrees with the pointwise shard_of of its first byte.
        cursor = offset
        for device, local, length in pieces:
            assert (device, local) == shard_of(cursor, stripe_bytes, n)
            assert length >= 1
            cursor += length

    def test_single_device_is_identity(self):
        assert shard_of(123456, 256 * KIB, 1) == (0, 123456)


class TestShardedStream:
    def test_devices_partition_the_stream(self):
        trace = generate(profile("ts0"), n_requests=400, seed=3)
        base = InMemoryStream(trace, chunk_requests=128)
        n = 3
        shards = [materialize(ShardedStream(base, d, n, 64 * KIB))
                  for d in range(n)]
        total_bytes = sum(int(s.sizes.sum()) for s in shards)
        assert total_bytes == int(trace.sizes.sum())
        assert sum(len(s) for s in shards) >= len(trace)

    def test_chunk_boundaries_align(self):
        trace = generate(profile("ts0"), n_requests=300, seed=4)
        base = InMemoryStream(trace, chunk_requests=100)
        for d in range(2):
            chunks = list(ShardedStream(base, d, 2, 64 * KIB).chunks())
            assert len(chunks) == 3  # one (possibly empty) per base chunk

    def test_rejects_bad_device(self):
        trace = generate(profile("ts0"), n_requests=10, seed=1)
        base = InMemoryStream(trace)
        with pytest.raises(ConfigError):
            ShardedStream(base, 2, 2, 4 * KIB)

    def test_offset_stream_shifts(self):
        trace = generate(profile("ts0"), n_requests=50, seed=1)
        shifted = materialize(
            OffsetStream(InMemoryStream(trace), 1 << 40))
        assert (shifted.offsets == trace.offsets + (1 << 40)).all()


# -- config -----------------------------------------------------------------


class TestFleetConfig:
    def test_roundtrip(self):
        cfg = FleetConfig(**SMALL)
        assert FleetConfig.from_json(cfg.to_json()) == cfg

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigError):
            FleetConfig.from_dict({"bogus": 1})

    def test_tenant_requests_sum_exactly(self):
        cfg = FleetConfig(
            n_devices=2,
            tenants=(TenantSpec("ts0", 1.0), TenantSpec("usr0", 0.3),
                     TenantSpec("wdev0", 0.3)),
            n_epochs=3, epoch_requests=1000)
        counts = cfg.tenant_requests()
        assert sum(counts) == cfg.total_requests == 3000
        assert all(c >= 0 for c in counts)

    def test_tenant_seeds_differ_by_index(self):
        cfg = FleetConfig(tenants=(TenantSpec("ts0"), TenantSpec("ts0")))
        assert cfg.tenant_seed(0) != cfg.tenant_seed(1)

    def test_device_keys_differ(self):
        cfg = FleetConfig(**SMALL)
        assert cfg.device_key(0) != cfg.device_key(1)

    def test_validation(self):
        with pytest.raises(ConfigError):
            FleetConfig(n_devices=0).validate()
        with pytest.raises(ConfigError):
            FleetConfig(tenants=()).validate()
        with pytest.raises(ConfigError):
            FleetConfig(stripe_bytes=1000).validate()
        with pytest.raises(ConfigError):
            FleetConfig(tenants=(TenantSpec("nope"),)).validate()


# -- histogram percentiles --------------------------------------------------


class TestHistogram:
    def test_counts_cover_everything(self):
        import numpy as np
        lat = np.array([1e-5, 0.5, 2.0, 1e6])
        hist = histogram_latencies(lat)
        assert sum(hist) == 4
        assert hist[0] == 1 and hist[-1] == 1  # under/overflow

    def test_samples_on_both_edges_counted_once(self):
        import numpy as np
        edges = LAT_HIST_EDGES_MS
        lat = np.array([edges[0], edges[-1], edges[-1]])
        hist = histogram_latencies(lat)
        assert sum(hist) == len(lat)
        assert hist[0] == 0 and hist[1] == 1      # lowest edge: first bin
        assert hist[-1] == 0 and hist[-2] == 2    # top edge: last bin
        assert quantile_from_histogram(hist, 99.0) == float(edges[-1])
        single = histogram_latencies(np.array([edges[-1]]))
        assert sum(single) == 1

    def test_quantile_is_upper_edge(self):
        import numpy as np
        lat = np.full(100, 0.5)
        hist = histogram_latencies(lat)
        q = quantile_from_histogram(hist, 99.0)
        # 0.5 ms falls inside one bin; its upper edge bounds the value.
        edges = LAT_HIST_EDGES_MS
        i = int(np.searchsorted(edges, 0.5, side="right"))
        assert q == float(edges[i])

    def test_empty_is_zero(self):
        import numpy as np
        assert quantile_from_histogram(
            histogram_latencies(np.array([])), 99.0) == 0.0


# -- campaigns --------------------------------------------------------------


@pytest.fixture(scope="module")
def small_campaign():
    cfg = FleetConfig(**SMALL)
    return cfg, run_campaign(cfg, jobs=1)


class TestCampaign:
    def test_structure(self, small_campaign):
        cfg, camp = small_campaign
        assert len(camp["devices"]) == cfg.n_devices
        assert len(camp["epochs"]) == cfg.n_epochs
        for rec in camp["epochs"]:
            assert rec["lat_p50_ms"] <= rec["lat_p99_ms"] <= rec["lat_p999_ms"]
            assert 0.0 <= rec["capacity_loss"] <= 1.0
        assert camp["totals"]["n_requests"] == sum(
            r["n_requests"] for r in camp["epochs"])

    def test_json_roundtrip(self, small_campaign):
        _, camp = small_campaign
        text = campaign_json(camp)
        assert campaign_json(json.loads(text)) == text

    def test_parallel_matches_sequential(self, small_campaign):
        cfg, camp = small_campaign
        parallel = run_campaign(cfg, jobs=2)
        assert campaign_json(parallel) == campaign_json(camp)

    def test_warm_cache_matches(self, small_campaign, tmp_path):
        cfg, camp = small_campaign
        cold = run_campaign(cfg, jobs=1, cache_dir=str(tmp_path))
        warm = run_campaign(cfg, jobs=1, cache_dir=str(tmp_path))
        assert campaign_json(cold) == campaign_json(camp)
        assert campaign_json(warm) == campaign_json(camp)

    def test_stop_resume_byte_identity(self, small_campaign, tmp_path):
        """The acceptance criterion: pause mid-campaign, resume, compare
        canonical JSON bytes with the never-paused run."""
        cfg, camp = small_campaign
        ck = str(tmp_path / "ck")
        paused = run_campaign(cfg, jobs=1, checkpoint_dir=ck,
                              checkpoint_every=1, stop_after_epoch=2)
        assert paused is None
        resumed = run_campaign(cfg, jobs=1, checkpoint_dir=ck,
                               checkpoint_every=1)
        assert campaign_json(resumed) == campaign_json(camp)

    def test_stop_without_checkpoint_dir_raises(self):
        cfg = FleetConfig(**SMALL)
        with pytest.raises(ExperimentError):
            run_device(cfg, 0, stop_after_epoch=1)

    def test_device_payload_epochs_are_cumulative(self, small_campaign):
        cfg, camp = small_campaign
        dev = camp["devices"][0]
        cum_requests = [e["cum"]["n_requests"] for e in dev["epochs"]]
        assert cum_requests == sorted(cum_requests)
        assert cum_requests[-1] == dev["final"]["n_requests"]
        assert dev["final"]["fleet_device"] == 0
        assert dev["final"]["fleet_epoch"] == cfg.n_epochs - 1


class TestDeviceCacheEntries:
    @pytest.mark.parametrize("damage", [
        lambda payload: [1, 2],
        lambda payload: {k: v for k, v in payload.items() if k != "epochs"},
        lambda payload: {**payload, "epochs": payload["epochs"][:1]},
        lambda payload: {**payload, "epochs": [{} for _ in payload["epochs"]]},
    ], ids=["list", "no-epochs", "short-epochs", "empty-epochs"])
    def test_damaged_entry_is_a_replaced_miss(self, tmp_path, damage):
        """A well-framed device entry that is not the device's payload is
        never served: ``check_device_payload`` rejects it, the device
        replays and its fresh payload replaces it."""
        cfg = FleetConfig(n_devices=1, tenants=(TenantSpec("ts0"),),
                          scheme="ipu", scale="smoke", seed=3, n_epochs=2,
                          epoch_requests=300)
        ref = campaign_json(run_campaign(cfg, jobs=1,
                                         cache_dir=str(tmp_path)))
        cache, key = ResultCache(tmp_path), cfg.device_key(0)
        stored = cache.path_for(key).read_bytes()
        cache.put(key, damage(cache.get(key)))
        rerun = run_campaign(cfg, jobs=1, cache_dir=str(tmp_path))
        assert campaign_json(rerun) == ref
        assert cache.path_for(key).read_bytes() == stored


class TestFaultyCampaign:
    def test_resume_with_faults(self, tmp_path):
        cfg = FleetConfig(n_devices=2, tenants=(TenantSpec("ts0"),),
                          scheme="mga", scale="smoke", seed=5, n_epochs=2,
                          epoch_requests=400, fault_rate=2.0)
        ref = campaign_json(run_campaign(cfg, jobs=1))
        ck = str(tmp_path / "ck")
        assert run_campaign(cfg, jobs=1, checkpoint_dir=ck,
                            checkpoint_every=1, stop_after_epoch=1) is None
        resumed = campaign_json(
            run_campaign(cfg, jobs=1, checkpoint_dir=ck))
        assert resumed == ref


# -- CLI --------------------------------------------------------------------


class TestFleetCli:
    def test_fleet_command_writes_canonical_json(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "fleet.json"
        rc = main(["fleet", "--devices", "2", "--tenants", "ts0",
                   "--epochs", "2", "--epoch-requests", "300",
                   "--no-cache", "--json", str(out)])
        assert rc == 0
        payload = json.loads(out.read_text())
        assert len(payload["epochs"]) == 2
        assert "Fleet campaign" in capsys.readouterr().out

    def test_fleet_cli_stop_and_resume(self, tmp_path):
        from repro.cli import main
        ck = str(tmp_path / "ck")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        args = ["fleet", "--devices", "2", "--tenants", "ts0",
                "--epochs", "2", "--epoch-requests", "300", "--no-cache"]
        assert main(args + ["--json", str(a)]) == 0
        assert main(args + ["--checkpoint-dir", ck,
                            "--stop-after-epoch", "1"]) == 0
        assert main(args + ["--checkpoint-dir", ck,
                            "--json", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
