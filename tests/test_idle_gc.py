"""``BaseFTL.idle_collect``: run the collectors to their restore
watermarks without a host request."""

from repro import IPUFTL, BaselineFTL

from conftest import tiny_config


def below_threshold(gc):
    """Whether the region's free pool is under its GC trigger."""
    return gc.allocator.free_blocks < gc._threshold


class TestIdleCollect:
    def test_idle_collect_noop_when_clean(self):
        ftl = IPUFTL(tiny_config())
        assert ftl.idle_collect(0.0) == []

    def test_idle_collect_reaches_restore(self):
        ftl = BaselineFTL(tiny_config())
        lsn = 0
        while not below_threshold(ftl.slc_gc):
            ftl.write([lsn], 0.0)
            lsn += 4
        ops = ftl.idle_collect(1.0)
        assert ops
        assert not below_threshold(ftl.slc_gc)
        assert not ftl.slc_gc.draining

    def test_state_consistent(self):
        ftl = BaselineFTL(tiny_config())
        lsn = 0
        while ftl.flash.erases_slc < 1:
            ftl.write([lsn], 0.0)
            lsn += 4
            ftl.idle_collect(float(lsn))
        ftl.check_consistency()
