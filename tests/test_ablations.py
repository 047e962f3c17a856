"""Ablations of the design choices DESIGN.md calls out.

Not paper artifacts: each isolates one IPU ingredient or one Baseline
modelling choice, replaying ts0 at smoke scale with seed 1.

* **ISR versus greedy victim selection** under IPU's movement rules;
* **three levels versus a flat Work-only cache** (promotion disabled:
  every overflow rewrite lands back at Work level);
* **Baseline with and without sibling merging** (the paper's Baseline
  does not merge; merging trades read-modify-write reads for
  utilisation);
* **Baseline on a faster bus**, which shows how much of its write
  latency is the full-page buffer transfer.

The variants are test-local subclasses that keep their base scheme's
``scheme_name``, so every result is priced like the scheme it varies.
"""

import dataclasses

import pytest

from repro import BaselineFTL, IPUFTL, Simulator
from repro.experiments.runner import RunContext
from repro.ftl.levels import BlockLevel
from repro.ftl.victim import GreedyVictimPolicy


class GreedyIPU(IPUFTL):
    """IPU with the conventional greedy victim policy (no Equations 1/2)."""

    def _make_slc_policy(self):
        return GreedyVictimPolicy()


class FlatIPU(IPUFTL):
    """IPU without the level hierarchy: overflows stay at Work level."""

    def _promotion_target(self, current_level):
        return BlockLevel.WORK


@pytest.fixture(scope="module")
def ts0():
    """ts0's smoke-scale device config and trace."""
    ctx = RunContext(scale="smoke", seed=1)
    return ctx.trace_config("ts0"), ctx.trace("ts0")


def _replay(ts0, ftl_cls, config=None, **kwargs):
    default_config, trace = ts0
    return Simulator(ftl_cls(config or default_config, **kwargs)).run(trace)


@pytest.fixture(scope="module")
def ipu(ts0):
    return _replay(ts0, IPUFTL)


@pytest.fixture(scope="module")
def baseline(ts0):
    return _replay(ts0, BaselineFTL)


def test_isr_and_greedy_victims_differ_and_disturb_nothing(ts0, ipu):
    greedy = _replay(ts0, GreedyIPU)
    assert greedy.scheme == ipu.scheme == "ipu"
    assert greedy.deterministic_dict() != ipu.deterministic_dict()
    assert ipu.disturbed_valid_subpages == 0
    assert greedy.disturbed_valid_subpages == 0


def test_flat_hierarchy_writes_only_at_work(ts0, ipu):
    flat = _replay(ts0, FlatIPU)
    levels = (int(BlockLevel.MONITOR), int(BlockLevel.HOT))
    # Three-level IPU promotes, so the flat variant's zeros are its own.
    assert any(ipu.level_writes.get(level, 0) > 0 for level in levels)
    assert all(flat.level_writes.get(level, 0) == 0 for level in levels)
    assert flat.level_writes[int(BlockLevel.WORK)] > 0
    assert flat.disturbed_valid_subpages == 0


def test_baseline_merge_raises_page_utilization(ts0, baseline):
    merged = _replay(ts0, BaselineFTL, merge_siblings=True)
    assert merged.slc_page_utilization > baseline.slc_page_utilization


def test_fast_bus_lowers_baseline_write_latency(ts0, baseline):
    config, _ = ts0
    fast_bus = dataclasses.replace(config, timing=dataclasses.replace(
        config.timing, transfer_ms_per_subpage=0.005))
    fast = _replay(ts0, BaselineFTL, fast_bus)
    assert fast.avg_write_latency_ms < baseline.avg_write_latency_ms
