"""Operation records, the latency model and the fused op pricer."""

import pickle

import pytest

from repro import BaselineFTL
from repro.config import SSDConfig
from repro.nand.geometry import Geometry
from repro.sim.ops import Cause, OpKind, OpRecord
from repro.sim.resources import ResourceSet
from repro.sim.timing import TimingModel

from conftest import tiny_config
from reference_geometry import chip_of


def op(kind=OpKind.READ, slc=True, n_slots=1, cause=Cause.HOST,
       ecc_ms=0.0, transfer_slots=0):
    return OpRecord(kind=kind, block_id=0, page=0, n_slots=n_slots,
                    is_slc=slc, cause=cause, ecc_ms=ecc_ms,
                    transfer_slots=transfer_slots)


@pytest.fixture
def timing():
    return TimingModel(tiny_config())


class TestOpRecord:
    def test_channel_slots_defaults_to_n_slots(self):
        assert op(n_slots=3).channel_slots == 3

    def test_channel_slots_override(self):
        assert op(n_slots=1, transfer_slots=4).channel_slots == 4

    def test_negative_slots_rejected(self):
        with pytest.raises(ValueError):
            op(n_slots=-1)

    def test_negative_ecc_rejected(self):
        with pytest.raises(ValueError):
            op(ecc_ms=-0.1)

    def test_slots_reject_new_attributes(self):
        # OpRecord is a slots dataclass (hot-path construction cost);
        # unknown attributes are still rejected.
        record = op()
        with pytest.raises(AttributeError):
            record.not_a_field = 1.0


class TestTiming:
    def test_erase_duration(self, timing):
        assert timing.duration_ms(op(kind=OpKind.ERASE, n_slots=0)) == 10.0

    def test_slc_program(self, timing):
        t = timing.config.timing
        expected = t.transfer_ms_per_subpage * 2 + t.slc_write_ms
        assert timing.duration_ms(
            op(kind=OpKind.PROGRAM, n_slots=2)) == pytest.approx(expected)

    def test_mlc_program_slower(self, timing):
        slc = timing.duration_ms(op(kind=OpKind.PROGRAM, slc=True))
        mlc = timing.duration_ms(op(kind=OpKind.PROGRAM, slc=False))
        assert mlc - slc == pytest.approx(0.9 - 0.3)

    def test_full_page_transfer_costs_more(self, timing):
        partial = timing.duration_ms(op(kind=OpKind.PROGRAM, n_slots=1))
        full = timing.duration_ms(
            op(kind=OpKind.PROGRAM, n_slots=1, transfer_slots=4))
        t = timing.config.timing
        assert full - partial == pytest.approx(3 * t.transfer_ms_per_subpage)

    def test_read_includes_ecc(self, timing):
        base = timing.duration_ms(op())
        with_ecc = timing.duration_ms(op(ecc_ms=0.05))
        assert with_ecc - base == pytest.approx(0.05)

    def test_slc_read_faster(self, timing):
        slc = timing.duration_ms(op(slc=True))
        mlc = timing.duration_ms(op(slc=False))
        assert mlc - slc == pytest.approx(0.05 - 0.025)

    def test_pseudo_read_helpers(self, timing):
        """A read of never-written data is an MLC read at the base RBER
        (``BaseFTL._pseudo_reads``), its raw errors linear in subpages."""
        ftl = BaselineFTL(timing.config)
        (one,) = ftl.handle_read([0], 0.0)
        (two,) = ftl.handle_read([4, 5], 0.0)
        assert not one.is_slc and one.cause is Cause.HOST
        assert 0.0005 <= one.ecc_ms <= 0.0968
        assert two.ecc_ms == one.ecc_ms
        assert one.raw_errors > 0
        assert two.raw_errors == pytest.approx(2 * one.raw_errors)
        assert ftl.stats.pseudo_read_ops == 2


def server_state(resources):
    return [(r.next_free, r.busy_ms, r.operations)
            for r in resources.chips + resources.channels]


@pytest.mark.parametrize("transfer_slots", [0, 4])
@pytest.mark.parametrize("slc", [True, False])
@pytest.mark.parametrize("kind", [OpKind.ERASE, OpKind.PROGRAM, OpKind.READ])
def test_pricer_matches_timing_model(kind, slc, transfer_slots):
    """``OpPricer.reserve`` is the model's price plus the resource
    reservation fused: same end times and same server clocks, bit for bit."""
    cfg = tiny_config()
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
    assert copy.resources.chips[chip_of(copy.resources.geometry, 0)].operations == 2
