"""The fault-injection subsystem: config, injectors, device response,
campaigns and the cache/determinism contracts.

The two load-bearing properties:

* **rate 0 is bit-identical** — attaching a disabled config (or none)
  must reproduce every simulation field exactly, for all four schemes
  and arbitrary seeds (hypothesis sweeps them);
* **injector counts are monotone in the rate** — the single-draw
  injectors compare one shared uniform sequence against the threshold,
  so the same seed at a higher rate can only fire more often.
"""

from __future__ import annotations

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import ConfigError
from repro.experiments.cache import ResultCache
from repro.experiments.runner import RunContext
from repro.faults import BadBlockTable, FaultConfig, FaultPlan, attach_faults
from repro.faults.campaign import CURVE_FIELDS, campaign_json, run_campaign
from repro.nand.block import BlockState
from repro.nand.flash import FlashArray
from repro.rng import faults_rng, make_rng
from repro.sim import Simulator
from repro.traces.profiles import profile
from repro.traces.synth import generate

from conftest import tiny_config

SCHEMES = ("baseline", "mga", "ipu", "delta")

#: Short cells keep full-simulation tests affordable.
FAST = dict(scale="smoke", seed=7, length_factor=0.25)

SETTINGS = settings(max_examples=20, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def short_trace(seed=11, n_requests=800):
    return generate(profile("ts0"), n_requests=n_requests, seed=seed,
                    mean_interarrival_ms=0.6)


def build_ftl(scheme, seed=0):
    from repro import SCHEMES as factories
    return factories[scheme](tiny_config(seed=seed))


# --------------------------------------------------------------------------
# FaultConfig


class TestFaultConfig:
    def test_default_is_disabled(self):
        cfg = FaultConfig()
        assert not cfg.enabled
        cfg.validate()

    def test_from_rate_zero_is_exactly_disabled(self):
        assert FaultConfig.from_rate(0.0) == FaultConfig()

    def test_from_rate_negative_raises(self):
        with pytest.raises(ConfigError):
            FaultConfig.from_rate(-0.5)

    def test_from_rate_enables_every_mechanism(self):
        cfg = FaultConfig.from_rate(1.0)
        assert cfg.read_fault_scale > 0
        assert 0 < cfg.program_fault_rate <= 1
        assert 0 < cfg.erase_fault_rate <= 1
        assert cfg.power_loss_per_ms > 0
        cfg.validate()

    def test_roundtrip_dict_and_json(self):
        cfg = FaultConfig.from_rate(0.7)
        assert FaultConfig.from_dict(cfg.to_dict()) == cfg
        assert FaultConfig.from_json(cfg.to_json()) == cfg

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ConfigError):
            FaultConfig.from_dict({"read_fault_scale": 1.0, "bogus": 2})

    @pytest.mark.parametrize("kwargs", [
        dict(read_fault_scale=-1.0),
        dict(program_fault_rate=1.5),
        dict(erase_fault_rate=-0.1),
        dict(power_loss_per_ms=-2.0),
        dict(read_retries_max=0),
        dict(retry_success_scale=0.0),
        dict(relocate_after_retries=0),
        dict(torn_window_ms=-1.0),
        dict(max_retire_fraction=1.5),
        dict(program_retry_limit=0),
    ])
    def test_validate_rejects(self, kwargs):
        with pytest.raises(ConfigError):
            FaultConfig(**kwargs).validate()


# --------------------------------------------------------------------------
# RNG streams


class TestFaultStreams:
    def test_mechanisms_are_independent_streams(self):
        a = faults_rng(3, "read").random(8).tolist()
        b = faults_rng(3, "program").random(8).tolist()
        assert a != b

    def test_stream_is_reproducible(self):
        assert (faults_rng(5, "erase").random(8).tolist()
                == faults_rng(5, "erase").random(8).tolist())

    def test_namespaced_away_from_plain_streams(self):
        """A fault stream never collides with a same-named model stream."""
        assert (faults_rng(1, "read").random(4).tolist()
                != make_rng(1, "read").random(4).tolist())

    def test_empty_mechanism_rejected(self):
        with pytest.raises(ValueError):
            faults_rng(1, "")


# --------------------------------------------------------------------------
# Injectors


class TestReadOutcome:
    def test_disabled_scale_draws_nothing(self):
        plan = FaultPlan(FaultConfig(), seed=1)
        assert plan.read_outcome(1.0) == (0, False)
        assert plan.stats.read_faults == 0

    def test_certain_failure_climbs_ladder(self):
        """p pinned at 1 by retry_success_scale=1: the ladder exhausts,
        the read is uncorrectable and the page must be reclaimed."""
        cfg = FaultConfig(read_fault_scale=1.0, retry_success_scale=1.0,
                          read_retries_max=3)
        plan = FaultPlan(cfg, seed=1)
        retries, reclaim = plan.read_outcome(1.0)
        assert retries == 3 and reclaim
        assert plan.stats.read_faults == 1
        assert plan.stats.read_retries == 3
        assert plan.stats.uncorrectable_reads == 1

    def test_retries_bounded_by_ladder_depth(self):
        cfg = FaultConfig(read_fault_scale=1e9, read_retries_max=4)
        plan = FaultPlan(cfg, seed=2)
        for _ in range(200):
            retries, _ = plan.read_outcome(1.0)
            assert 0 <= retries <= 4
        assert plan.stats.read_faults > 0

    def test_zero_probability_never_fires(self):
        cfg = FaultConfig(read_fault_scale=5.0)
        plan = FaultPlan(cfg, seed=3)
        assert plan.read_outcome(0.0) == (0, False)
        assert plan.stats.read_faults == 0


class TestInjectorMonotonicity:
    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1),
           r1=st.floats(0.0, 1.0), r2=st.floats(0.0, 1.0))
    def test_program_failures_monotone_in_rate(self, seed, r1, r2):
        lo, hi = sorted((r1, r2))
        counts = []
        for rate in (lo, hi):
            plan = FaultPlan(FaultConfig(program_fault_rate=rate), seed=seed)
            counts.append(sum(plan.program_fails() for _ in range(300)))
        assert counts[0] <= counts[1]

    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1),
           r1=st.floats(0.0, 1.0), r2=st.floats(0.0, 1.0))
    def test_erase_failures_monotone_in_rate(self, seed, r1, r2):
        lo, hi = sorted((r1, r2))
        flash = FlashArray(tiny_config())
        counts = []
        for rate in (lo, hi):
            # Uncapped budget: every sampled failure retires, so the
            # stat counts the raw draws.
            plan = FaultPlan(FaultConfig(erase_fault_rate=rate,
                                         max_retire_fraction=1.0), seed=seed)
            plan.bind(flash)
            for block in flash.blocks:
                plan.should_retire_after_erase(block)
            counts.append(plan.stats.erase_failures)
        assert counts[0] <= counts[1]


class TestBadBlockTable:
    def test_budget_caps_retirement(self):
        flash = FlashArray(tiny_config())
        table = BadBlockTable(flash, max_retire_fraction=0.1)
        slc = True
        admitted = 0
        while table.can_retire(slc):
            table.note_retired(admitted, slc)
            admitted += 1
        # Nonzero budget always admits at least one block, then stops.
        assert admitted >= 1
        assert not table.can_retire(slc)

    def test_zero_budget_never_retires(self):
        flash = FlashArray(tiny_config())
        table = BadBlockTable(flash, max_retire_fraction=0.0)
        assert not table.can_retire(True)
        assert not table.can_retire(False)

    def test_condemn_and_pardon(self):
        flash = FlashArray(tiny_config())
        table = BadBlockTable(flash, max_retire_fraction=0.5)
        table.condemn(4)
        assert table.is_condemned(4)
        table.pardon(4)
        assert not table.is_condemned(4)

    def test_over_budget_failure_pardons_block(self):
        """Past the budget the plan still counts the failure but returns
        the block to service."""
        flash = FlashArray(tiny_config())
        plan = FaultPlan(FaultConfig(erase_fault_rate=1.0,
                                     max_retire_fraction=0.0), seed=1)
        plan.bind(flash)
        block = flash.blocks[0]
        assert not plan.should_retire_after_erase(block)
        assert plan.stats.erase_failures == 1
        assert plan.stats.retired_blocks == 0


# --------------------------------------------------------------------------
# Rate 0 == no subsystem, bit for bit


class TestRateZeroBitIdentity:
    def test_attach_disabled_config_is_noop(self):
        ftl = build_ftl("ipu")
        assert attach_faults(ftl, FaultConfig()) is None
        assert attach_faults(ftl, None) is None
        assert ftl.faults is None and ftl.flash.faults is None

    @SETTINGS
    @given(seed=st.integers(0, 2**31 - 1))
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_rate_zero_reproduces_exactly(self, scheme, seed):
        trace = short_trace(seed=seed % 1000, n_requests=400)
        plain_ftl = build_ftl(scheme)
        plain = Simulator(plain_ftl).run(trace).deterministic_dict()
        ftl = build_ftl(scheme)
        attach_faults(ftl, FaultConfig.from_rate(0.0), seed=seed)
        injected = Simulator(ftl).run(trace).deterministic_dict()
        assert injected == plain

    def test_rate_zero_result_has_zero_fault_fields(self):
        ftl = build_ftl("mga")
        result = Simulator(ftl).run(short_trace(n_requests=400))
        for field in CURVE_FIELDS:
            assert getattr(result, field) == 0


# --------------------------------------------------------------------------
# Full-simulation integration at a hot rate


class TestFaultIntegration:
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_every_mechanism_fires_and_device_stays_consistent(self, scheme):
        ftl = build_ftl(scheme)
        plan = attach_faults(ftl, FaultConfig.from_rate(1.0), seed=3)
        assert plan is not None
        result = Simulator(ftl).run(short_trace(n_requests=2000))
        ftl.check_consistency()
        assert result.read_faults > 0
        assert result.read_retries >= result.read_faults
        assert result.fault_relocations > 0
        assert result.program_failures > 0
        assert result.retired_blocks > 0
        assert result.power_loss_events > 0
        assert result.recovery_ms > 0
        # Retired capacity is visible in the block states.
        retired = [block for block in ftl.flash.blocks
                   if block.state is BlockState.RETIRED]
        assert len(retired) == result.retired_blocks
        for block in retired:
            assert not any(block.valid.flat)

    def test_same_seed_same_faults(self):
        outcomes = []
        for _ in range(2):
            ftl = build_ftl("ipu")
            attach_faults(ftl, FaultConfig.from_rate(0.8), seed=5)
            result = Simulator(ftl).run(short_trace(n_requests=1200))
            outcomes.append(result.deterministic_dict())
        assert outcomes[0] == outcomes[1]


# --------------------------------------------------------------------------
# Cache keys (satellite: fault campaigns never reuse fault-free entries)


class TestFaultCacheKeys:
    def test_disabled_config_canonicalises_to_no_faults_key(self):
        plain = RunContext(**FAST)
        disabled = RunContext(faults=FaultConfig(), **FAST)
        assert (plain.cell_key("ts0", "ipu")
                == disabled.cell_key("ts0", "ipu"))

    def test_enabled_config_moves_the_key(self):
        plain = RunContext(**FAST)
        faulty = RunContext(faults=FaultConfig.from_rate(1.0), **FAST)
        assert (plain.cell_key("ts0", "ipu")
                != faulty.cell_key("ts0", "ipu"))

    def test_different_rates_have_different_keys(self):
        a = RunContext(faults=FaultConfig.from_rate(0.5), **FAST)
        b = RunContext(faults=FaultConfig.from_rate(1.0), **FAST)
        assert a.cell_key("ts0", "ipu") != b.cell_key("ts0", "ipu")

    def test_cold_then_warm_fault_campaign(self, tmp_path):
        cache = ResultCache(tmp_path)
        faults = FaultConfig.from_rate(1.0)
        cold = RunContext(cache=cache, faults=faults, **FAST)
        first = cold.run("ts0", "ipu")
        assert cold.executed_cells == 1
        assert first.program_failures > 0

        warm = RunContext(cache=ResultCache(tmp_path), faults=faults, **FAST)
        second = warm.run("ts0", "ipu")
        assert warm.executed_cells == 0
        assert second.deterministic_dict() == first.deterministic_dict()

        # A fault-free context sharing the cache must NOT see that entry.
        plain = RunContext(cache=ResultCache(tmp_path), **FAST)
        clean = plain.run("ts0", "ipu")
        assert plain.executed_cells == 1
        assert clean.program_failures == 0


# --------------------------------------------------------------------------
# Campaign runner


class TestCampaign:
    RATES = (0.0, 1.0)

    def run(self, **kwargs):
        return run_campaign(rates=self.RATES, scale="smoke", seed=9,
                            traces=("ts0",), schemes=SCHEMES, **kwargs)

    def test_payload_shape_and_degradation(self):
        payload = self.run()
        assert payload["rates"] == list(self.RATES)
        assert sorted(payload["curves"]) == sorted(SCHEMES)
        for scheme in SCHEMES:
            points = payload["curves"][scheme]
            assert [p["rate"] for p in points] == list(self.RATES)
            clean, faulty = points
            for field in CURVE_FIELDS:
                assert clean[field] == 0
            assert faulty["read_retries"] > 0
            assert faulty["retired_blocks"] > 0
            assert faulty["program_failures"] > 0
            assert faulty["power_loss_events"] > 0
            assert clean["by_trace"]["ts0"]["avg_latency_ms"] > 0

    def test_same_seed_is_byte_identical(self):
        assert campaign_json(self.run()) == campaign_json(self.run())

    def test_parallel_matches_sequential(self, tmp_path):
        seq = self.run()
        par = self.run(jobs=2)
        assert campaign_json(seq) == campaign_json(par)

    def test_finished_campaign_keeps_no_context_alive(self, monkeypatch):
        """A campaign's contexts (and their traces and results) are
        garbage once it returns."""
        from repro.faults import campaign

        made = []

        def tracked(**kwargs):
            ctx = RunContext(**kwargs)
            made.append(weakref.ref(ctx))
            return ctx

        monkeypatch.setattr(campaign, "RunContext", tracked)
        run_campaign(rates=self.RATES, scale="smoke", seed=9,
                     traces=("ts0",), schemes=("baseline",))
        gc.collect()
        assert len(made) == len(self.RATES)
        assert [ref() for ref in made] == [None] * len(made)

    def test_rate_zero_point_matches_ordinary_run(self):
        payload = self.run()
        ctx = RunContext(scale="smoke", seed=9)
        for scheme in SCHEMES:
            expect = ctx.run("ts0", scheme).avg_latency_ms
            got = payload["curves"][scheme][0]["avg_latency_ms"]
            # The campaign re-weights by request count; x*n/n can move
            # the last ulp, so compare within float tolerance.
            assert got == pytest.approx(expect, rel=1e-12)
