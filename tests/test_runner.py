"""Experiment runner: sizing, pacing, memoisation details."""

import pytest

from repro.cli import main
from repro.config import SCALES, GeometryConfig
from repro.experiments.cache import ResultCache, facts_key
from repro.experiments.runner import (
    CACHE_OVER_HOTSET,
    MLC_OVER_FOOTPRINT,
    PILOT_REQUESTS,
    PilotFootprints,
    RunContext,
    TraceFacts,
    estimate_interarrival_ms,
    pilot_footprints,
)
from repro.traces.profiles import PROFILES, profile
from repro.traces.stats import characterize
from repro.traces.synth import SyntheticTraceGenerator

#: A short context: the smoke scale floors its traces at 1000 requests.
FAST = dict(scale="smoke", seed=7, length_factor=0.25)


class TestPacing:
    def test_write_heavy_paced_slower(self):
        ctx = RunContext(scale="smoke")
        cfg = ctx.config()
        ts0 = estimate_interarrival_ms(profile("ts0"), cfg)
        ads = estimate_interarrival_ms(profile("ads"), cfg)
        assert ts0 > ads  # writes cost more chip time than reads

    def test_more_chips_means_faster_pacing(self):
        smoke = RunContext(scale="smoke").config()
        medium = RunContext(scale="medium").config()
        p = profile("ts0")
        assert (estimate_interarrival_ms(p, medium)
                < estimate_interarrival_ms(p, smoke))

    def test_utilization_knob(self):
        cfg = RunContext(scale="smoke").config()
        p = profile("ts0")
        light = estimate_interarrival_ms(p, cfg, utilization=0.1)
        heavy = estimate_interarrival_ms(p, cfg, utilization=0.5)
        assert light > heavy

    def test_floor(self):
        cfg = RunContext(scale="medium").config()
        assert estimate_interarrival_ms(profile("ads"), cfg,
                                        utilization=1e9) == 0.02


class TestDeviceSizing:
    def test_cache_tracks_hot_set(self):
        ctx = RunContext(scale="smoke", seed=1)
        cfg = ctx.trace_config("ts0")
        gen = SyntheticTraceGenerator(
            profile("ts0"), n_requests=min(6000, ctx.trace_requests("ts0")),
            seed=1)
        gen.generate()
        scale_f = ctx.trace_requests("ts0") / min(6000, ctx.trace_requests("ts0"))
        hotset = float(gen.extents.sizes[gen.extents.is_hot].sum()) * scale_f
        # Cache within a factor of ~2 of the target ratio (rounding to
        # whole blocks per plane).
        assert cfg.slc_capacity_bytes >= CACHE_OVER_HOTSET * hotset * 0.5

    def test_mlc_exceeds_page_footprint(self):
        ctx = RunContext(scale="smoke", seed=1)
        for name in ("ts0", "ads"):
            cfg = ctx.trace_config(name)
            gen = SyntheticTraceGenerator(
                profile(name),
                n_requests=min(6000, ctx.trace_requests(name)), seed=1)
            gen.generate()
            scale_f = (ctx.trace_requests(name)
                       / min(6000, ctx.trace_requests(name)))
            footprint = gen.extents.page_footprint_bytes() * scale_f
            assert cfg.mlc_capacity_bytes >= footprint

    def test_config_memoised(self):
        ctx = RunContext(scale="smoke", seed=1)
        assert ctx.trace_config("ts0") is ctx.trace_config("ts0")

    def test_pe_override_changes_reliability_only(self):
        ctx = RunContext(scale="smoke", seed=1)
        base = ctx.trace_config("ts0")
        aged = ctx.trace_config("ts0", pe=8000)
        assert aged.reliability.initial_pe_cycles == 8000
        assert aged.geometry == base.geometry

    def test_blocks_divisible_by_planes(self):
        ctx = RunContext(scale="smoke", seed=1)
        for name in PROFILES:
            cfg = ctx.trace_config(name)
            assert cfg.geometry.total_blocks % cfg.geometry.planes == 0


class TestTraceRequests:
    def test_respects_scale_target(self):
        ctx = RunContext(scale="smoke", seed=1)
        assert ctx.trace_requests("ts0") == SCALES["smoke"].target_requests

    def test_length_factor(self):
        full = RunContext(scale="smoke", seed=1)
        short = RunContext(scale="smoke", seed=1, length_factor=0.5)
        assert short.trace_requests("ts0") == full.trace_requests("ts0") // 2

    def test_paper_scale_uses_published_counts(self):
        ctx = RunContext(scale="paper", seed=1)
        assert ctx.trace_requests("wdev0") == profile("wdev0").n_requests

    def test_trace_memoised(self):
        ctx = RunContext(scale="smoke", seed=1)
        assert ctx.trace("ads") is ctx.trace("ads")

    def test_seeds_isolate_contexts(self):
        a = RunContext(scale="smoke", seed=1).trace("ts0")
        b = RunContext(scale="smoke", seed=2).trace("ts0")
        import numpy as np
        assert not np.array_equal(a.offsets, b.offsets)


def pilot_key(ctx: RunContext, name: str) -> str:
    """The documented key of ``name``'s sizing-pilot fact."""
    return facts_key("pilot", {
        "profile": profile(name).to_dict(),
        "n_requests": ctx.trace_requests(name), "seed": ctx.seed,
        "pilot_requests": PILOT_REQUESTS,
        "page_size": GeometryConfig().page_size})


def trace_key(ctx: RunContext, name: str) -> str:
    """The documented key of ``name``'s trace fact: the generator's
    arguments."""
    prof = profile(name)
    return facts_key("trace", {
        "profile": prof.to_dict(), "n_requests": ctx.trace_requests(name),
        "seed": ctx.seed, "mean_interarrival_ms": estimate_interarrival_ms(
            prof, ctx.trace_config(name))})


def counts(stats) -> tuple[int, int, int]:
    return stats.hits, stats.misses, stats.stores


class TestTraceFacts:
    def test_cached_facts_equal_fresh_ones_bit_for_bit(self, tmp_path,
                                                       monkeypatch):
        fresh = RunContext(**FAST)
        pilot, facts = fresh.pilot("ts0"), fresh.trace_facts("ts0")
        # Without a cache a fact is computed exactly as the consumers
        # computed it before facts were cached.
        assert pilot == pilot_footprints(profile("ts0"),
                                         fresh.trace_requests("ts0"), 7)
        assert facts == TraceFacts(characterize(fresh.trace("ts0")),
                                   fresh.trace("ts0").footprint_bytes)

        cache = ResultCache(tmp_path)
        cold = RunContext(cache=cache, **FAST)
        assert (cold.pilot("ts0"), cold.trace_facts("ts0")) == (pilot, facts)
        assert counts(cache.fact_stats) == (0, 2, 2)
        assert counts(cache.stats) == (0, 0, 0)
        for key in (pilot_key(cold, "ts0"), trace_key(cold, "ts0")):
            assert cache.path_for(key).exists()

        def no_trace(*args, **kwargs):
            raise AssertionError("a cached fact generated a trace")

        monkeypatch.setattr(SyntheticTraceGenerator, "generate", no_trace)
        warm_cache = ResultCache(tmp_path)
        warm = RunContext(cache=warm_cache, **FAST)
        for got, want in ((warm.pilot("ts0"), pilot),
                          (warm.trace_facts("ts0"), facts)):
            assert got.to_json() == want.to_json() and got == want
        assert counts(warm_cache.fact_stats) == (2, 0, 0)

    @pytest.mark.parametrize("damage", [
        lambda cache, key, other: cache.path_for(key).write_bytes(
            b"\xff\xfe\xfd"),
        lambda cache, key, other: cache.put(
            key, cache.get(other, PilotFootprints.from_dict).to_dict()),
        lambda cache, key, other: cache.put(
            key, {**cache.get(key), "footprint_bytes": "1 MiB"}),
    ], ids=["bytes", "pilot-payload", "mistyped"])
    def test_damaged_or_foreign_fact_is_a_replaced_miss(self, tmp_path,
                                                        damage):
        cache = ResultCache(tmp_path)
        cold = RunContext(cache=cache, **FAST)
        facts = cold.trace_facts("ts0")
        key, other = trace_key(cold, "ts0"), pilot_key(cold, "ts0")
        damage(ResultCache(tmp_path), key, other)

        cache = ResultCache(tmp_path)
        ctx = RunContext(cache=cache, **FAST)
        assert ctx.trace_facts("ts0") == facts
        # The pilot hits; the damaged fact is one miss, recomputed and
        # stored in its place.
        assert counts(cache.fact_stats) == (1, 1, 1)
        assert ResultCache(tmp_path).get(key, TraceFacts.from_dict) == facts

    def test_cache_clear_removes_facts(self, tmp_path, capsys):
        cache = ResultCache(tmp_path)
        RunContext(cache=cache, **FAST).trace_facts("ts0")
        assert len(cache) == 2
        assert main(["cache", "--clear", "--cache-dir", str(tmp_path)]) == 0
        assert "removed 2 cached results" in capsys.readouterr().out
        assert len(cache) == 0
