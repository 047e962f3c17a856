"""Pipelined bus model (optional timing refinement)."""

import dataclasses
import pickle

import pytest

from repro import IPUFTL, Simulator
from repro.config import GeometryConfig, SSDConfig, TimingConfig
from repro.nand.geometry import Geometry
from repro.sim.ops import Cause, OpKind, OpRecord
from repro.sim.resources import ResourceSet
from repro.sim.timing import TimingModel
from repro.traces import generate, profile

from conftest import tiny_config


def pipe_config():
    cfg = tiny_config()
    return dataclasses.replace(
        cfg, timing=dataclasses.replace(cfg.timing, pipelined_bus=True))


@pytest.fixture
def rs():
    geo = Geometry(GeometryConfig(
        channels=2, chips_per_channel=2, planes_per_chip=1, total_blocks=32))
    return ResourceSet(geo)


class TestAcquirePipelined:
    def test_read_chip_then_channel(self, rs):
        start, end = rs.acquire_pipelined(0, 0.0, chip_ms=0.025,
                                          channel_ms=0.04, chip_first=True)
        assert (start, end) == (0.0, pytest.approx(0.065))
        assert rs.chips[rs.geometry.chip_of(0)].next_free == pytest.approx(0.025)
        assert rs.channels[rs.geometry.channel_of(0)].next_free == pytest.approx(0.065)

    def test_program_channel_then_chip(self, rs):
        start, end = rs.acquire_pipelined(0, 0.0, chip_ms=0.3,
                                          channel_ms=0.04, chip_first=False)
        assert end == pytest.approx(0.34)
        assert rs.channels[rs.geometry.channel_of(0)].next_free == pytest.approx(0.04)
        assert rs.chips[rs.geometry.chip_of(0)].next_free == pytest.approx(0.34)

    def test_erase_chip_only(self, rs):
        start, end = rs.acquire_pipelined(0, 0.0, chip_ms=10.0,
                                          channel_ms=0.0, chip_first=True)
        assert end == 10.0
        assert rs.channels[rs.geometry.channel_of(0)].next_free == 0.0

    def test_channel_freed_during_media_time(self, rs):
        """Two programs to different chips on one channel overlap their
        media phases — the point of pipelining."""
        geo = rs.geometry
        b0 = 0
        b1 = next(b for b in range(32)
                  if geo.channel_of(b) == geo.channel_of(b0)
                  and geo.chip_of(b) != geo.chip_of(b0))
        rs.acquire_pipelined(b0, 0.0, chip_ms=0.3, channel_ms=0.04,
                             chip_first=False)
        _, end = rs.acquire_pipelined(b1, 0.0, chip_ms=0.3, channel_ms=0.04,
                                      chip_first=False)
        assert end == pytest.approx(0.08 + 0.3)  # waits only for transfer

    def test_negative_stage_rejected(self, rs):
        from repro.errors import SimulationError
        with pytest.raises(SimulationError):
            rs.acquire_pipelined(0, 0.0, chip_ms=-1.0, channel_ms=0.0,
                                 chip_first=True)


class TestSegments:
    def test_read_segments(self):
        timing = TimingModel(tiny_config())
        op = OpRecord(kind=OpKind.READ, block_id=0, page=0, n_slots=2,
                      is_slc=True, cause=Cause.HOST, ecc_ms=0.01)
        chip, chan, chip_first = timing.segments_ms(op)
        assert chip == pytest.approx(0.025)
        assert chan == pytest.approx(2 * 0.04 + 0.01)
        assert chip_first

    def test_program_segments(self):
        timing = TimingModel(tiny_config())
        op = OpRecord(kind=OpKind.PROGRAM, block_id=0, page=0, n_slots=1,
                      is_slc=False, cause=Cause.HOST, transfer_slots=4)
        chip, chan, chip_first = timing.segments_ms(op)
        assert chip == pytest.approx(0.9)
        assert chan == pytest.approx(4 * 0.04)
        assert not chip_first

    def test_segments_sum_to_duration(self):
        timing = TimingModel(tiny_config())
        for kind, slots in ((OpKind.READ, 3), (OpKind.PROGRAM, 2),
                            (OpKind.ERASE, 0)):
            op = OpRecord(kind=kind, block_id=0, page=0, n_slots=slots,
                          is_slc=True, cause=Cause.HOST, ecc_ms=0.002
                          if kind is OpKind.READ else 0.0)
            chip, chan, _ = timing.segments_ms(op)
            assert chip + chan == pytest.approx(timing.duration_ms(op))


def server_state(resources):
    return [(r.next_free, r.busy_ms, r.operations)
            for r in resources.chips + resources.channels]


@pytest.mark.parametrize("pipelined", [False, True])
@pytest.mark.parametrize("transfer_slots", [0, 4])
@pytest.mark.parametrize("slc", [True, False])
@pytest.mark.parametrize("kind", [OpKind.ERASE, OpKind.PROGRAM, OpKind.READ])
def test_pricer_matches_timing_model(kind, slc, transfer_slots, pipelined):
    """``OpPricer.reserve`` is the model's price plus the resource
    reservation fused: same end times and same server clocks, bit for bit."""
    cfg = pipe_config() if pipelined else tiny_config()
    timing = TimingModel(cfg)
    geo = Geometry(cfg.geometry)
    expected_rs, pricer_rs = ResourceSet(geo), ResourceSet(geo)
    pricer = timing.pricer(pricer_rs)
    n_slots = 0 if kind is OpKind.ERASE else 3
    ecc_ms = 0.0123 if kind is OpKind.READ else 0.0
    # Same block twice (the second op queues behind the first), then a
    # block on another chip, at issue times that are not float-round.
    for block_id, when in ((0, 0.1), (0, 0.3), (1, 0.7)):
        op = OpRecord(kind, block_id, 0, n_slots, slc, Cause.HOST,
                      transfer_slots, ecc_ms)
        if pipelined:
            chip_ms, chan_ms, chip_first = timing.segments_ms(op)
            _, expected = expected_rs.acquire_pipelined(
                block_id, when, chip_ms, chan_ms, chip_first)
        else:
            _, expected = expected_rs.acquire_for_block(
                block_id, when, timing.duration_ms(op))
        assert pricer.reserve(op, when) == expected
        assert server_state(pricer_rs) == server_state(expected_rs)


def test_pricer_pickles_with_its_resources():
    timing = TimingModel(tiny_config())
    rs = ResourceSet(Geometry(tiny_config().geometry))
    pricer = timing.pricer(rs)
    pricer.reserve(OpRecord(OpKind.ERASE, 0, 0, 0, True, Cause.GC), 1.0)
    copy = pickle.loads(pickle.dumps(pricer))
    assert server_state(copy.resources) == server_state(rs)
    assert copy.reserve(OpRecord(OpKind.ERASE, 0, 0, 0, True, Cause.GC),
                        1.0) == pricer.reserve(
        OpRecord(OpKind.ERASE, 0, 0, 0, True, Cause.GC), 1.0)
    # The restored pricer still books onto the restored resource set.
    assert copy.resources.chips[copy.resources.geometry.chip_of(0)].operations == 2


class TestEndToEnd:
    def test_pipelining_never_hurts(self):
        trace = generate(profile("ts0"), n_requests=1500, seed=8,
                         mean_interarrival_ms=0.6)
        both = Simulator(IPUFTL(tiny_config())).run(trace)
        piped = Simulator(IPUFTL(pipe_config())).run(trace)
        assert piped.avg_latency_ms <= both.avg_latency_ms * 1.01

    def test_results_still_consistent(self):
        trace = generate(profile("ts0"), n_requests=800, seed=8,
                         mean_interarrival_ms=0.8)
        ftl = IPUFTL(pipe_config())
        Simulator(ftl).run(trace)
        ftl.check_consistency()
