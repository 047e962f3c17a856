"""Cached mapping table (DFTL-style translation extension)."""

import dataclasses

import pytest

from repro import SCHEMES, Simulator
from repro.config import TranslationConfig
from repro.errors import ConfigError
from repro.ftl.translation import CachedMappingTable
from repro.sim.ops import Cause, OpKind
from repro.traces import generate, profile

from conftest import tiny_config


def cmt(entries=4, pages=2):
    return CachedMappingTable(
        TranslationConfig(enabled=True, entries_per_page=entries,
                          cache_pages=pages))


class TestCachedMappingTable:
    def test_first_access_misses(self):
        table = cmt()
        assert table.access(0) == (True, False)
        assert table.stats.misses == 1

    def test_same_page_hits(self):
        table = cmt(entries=4)
        table.access(0)
        assert table.access(3) == (False, False)  # same translation page
        assert table.stats.hits == 1

    def test_different_page_misses(self):
        table = cmt(entries=4)
        table.access(0)
        assert table.access(4)[0] is True

    def test_lru_eviction(self):
        table = cmt(entries=1, pages=2)
        table.access(0)
        table.access(1)
        table.access(0)        # refresh 0; 1 becomes LRU
        table.access(2)        # evicts 1
        assert table.access(0)[0] is False
        assert table.access(1)[0] is True

    def test_dirty_eviction_causes_writeback(self):
        table = cmt(entries=1, pages=1)
        table.access(0, dirty=True)
        miss, writeback = table.access(1)
        assert miss and writeback
        assert table.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        table = cmt(entries=1, pages=1)
        table.access(0, dirty=False)
        assert table.access(1) == (True, False)

    def test_dirtiness_sticks_until_eviction(self):
        table = cmt(entries=1, pages=1)
        table.access(0, dirty=True)
        table.access(0, dirty=False)   # stays dirty
        assert table.access(1)[1] is True

    def test_hit_ratio(self):
        table = cmt()
        assert table.stats.hit_ratio == 1.0
        table.access(0)
        table.access(0)
        assert table.stats.hit_ratio == 0.5

    def test_flush(self):
        table = cmt(pages=4)
        table.access(0, dirty=True)
        table.access(8, dirty=False)
        assert table.flush() == 1
        # Both pages were dropped: each is a miss again, and the dirty
        # one is not written back a second time.
        misses = table.stats.misses
        assert table.access(8) == (True, False)
        assert table.access(0) == (True, False)
        assert table.stats.misses == misses + 2

    def test_negative_key_rejected(self):
        with pytest.raises(ConfigError):
            cmt().access(-1)

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            TranslationConfig(entries_per_page=0).validate()
        with pytest.raises(ConfigError):
            TranslationConfig(cache_pages=0).validate()


def xlat_config(cache_pages=2, entries=8):
    cfg = tiny_config()
    return dataclasses.replace(
        cfg, translation=TranslationConfig(
            enabled=True, entries_per_page=entries, cache_pages=cache_pages))


class TestFtlIntegration:
    def test_disabled_by_default(self, scheme_name):
        ftl = SCHEMES[scheme_name](tiny_config())
        assert ftl.cmt is None
        ops = ftl.handle_write([0], 0.0)
        assert not any(o.cause is Cause.TRANSLATION for o in ops)

    def test_miss_emits_translation_read(self, scheme_name):
        ftl = SCHEMES[scheme_name](xlat_config())
        ops = ftl.handle_write([0], 0.0)
        xlat = [o for o in ops if o.cause is Cause.TRANSLATION]
        assert any(o.kind is OpKind.READ for o in xlat)

    def test_repeated_access_hits(self, scheme_name):
        ftl = SCHEMES[scheme_name](xlat_config(cache_pages=8))
        ftl.handle_write([0], 0.0)
        ops = ftl.handle_write([0], 1.0)
        xlat = [o for o in ops if o.cause is Cause.TRANSLATION]
        assert xlat == []

    def test_mga_touches_second_level(self):
        from repro.ftl.base import SECOND_LEVEL_KEY_BASE
        mga = SCHEMES["mga"](xlat_config())
        keys = mga.translation_keys([0, 1])
        assert 0 in keys
        assert SECOND_LEVEL_KEY_BASE + 0 in keys
        assert SECOND_LEVEL_KEY_BASE + 1 in keys

    def test_mga_misses_more_than_ipu(self):
        """MGA's two-level table thrashes a small CMT harder — the
        translation-latency point the paper's introduction makes."""
        trace = generate(profile("ts0"), n_requests=1500, seed=9,
                         mean_interarrival_ms=1.0)
        misses = {}
        for scheme in ("ipu", "mga"):
            ftl = SCHEMES[scheme](xlat_config(cache_pages=2, entries=16))
            Simulator(ftl).run(trace)
            misses[scheme] = ftl.cmt.stats.misses
        assert misses["mga"] > misses["ipu"]

    def test_translation_counts_toward_latency(self):
        trace = generate(profile("ts0"), n_requests=800, seed=9,
                         mean_interarrival_ms=1.0)
        base = Simulator(SCHEMES["ipu"](tiny_config())).run(trace)
        xlat = Simulator(
            SCHEMES["ipu"](xlat_config(cache_pages=1, entries=1))).run(trace)
        assert xlat.avg_latency_ms > base.avg_latency_ms

    def test_translation_restores_paper_ordering(self):
        """With second-level translation charged (the cost the paper's
        introduction attributes to partial-programming schemes and IPU's
        contribution #1 eliminates), IPU beats MGA on latency — the
        paper's Figure 5 ordering."""
        from repro.experiments.runner import RunContext
        ctx = RunContext(scale="smoke", seed=21)
        cfg = dataclasses.replace(
            ctx.trace_config("ts0"),
            translation=TranslationConfig(
                enabled=True, entries_per_page=256, cache_pages=4))
        trace = ctx.trace("ts0")
        mga = Simulator(SCHEMES["mga"](cfg)).run(trace)
        ipu = Simulator(SCHEMES["ipu"](cfg)).run(trace)
        baseline = Simulator(SCHEMES["baseline"](cfg)).run(trace)
        assert ipu.avg_latency_ms < mga.avg_latency_ms
        assert ipu.avg_latency_ms < baseline.avg_latency_ms

    def test_translation_reads_not_in_error_metric(self):
        trace = generate(profile("ts0"), n_requests=800, seed=9,
                         mean_interarrival_ms=1.0)
        base = Simulator(SCHEMES["ipu"](tiny_config())).run(trace)
        xlat = Simulator(
            SCHEMES["ipu"](xlat_config(cache_pages=1, entries=1))).run(trace)
        assert xlat.read_bits == base.read_bits
