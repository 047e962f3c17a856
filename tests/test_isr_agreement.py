"""How often IPU's cached ISR pick differs from an exact Eq. 1-2 scan.

``IsrVictimPolicy`` reuses a block's stored IS' (Eq. 2) while the block's
content holds, the value is at most ``isr_refresh_ms`` old and the region
mean ``T`` has moved by at most 25% (docs/MODEL.md, section 6).  A probe
policy lets the cached pick drive the replay and also scores every scan
exactly (:func:`reference_isr.ref_isr`: fresh age sums, exact ``T``,
fresh Eq. 2).  It counts the scans whose exact pick differs.

The counts are pinned at smoke scale, seed 1: a change to the cache, to
the scan or to how the replay reaches it moves a number here.  The same
probe at small scale gives ts0 54/499, wdev0 48/515 and usr0 34/461
(EXPERIMENTS.md, deviation 6).
"""

from __future__ import annotations

import pytest

from repro import IPUFTL
from repro.experiments.runner import RunContext
from repro.ftl.victim import IsrVictimPolicy
from repro.sim import Simulator

from reference_isr import ref_isr

#: trace -> (SLC victim scans, scans whose exact pick differs).
PINNED = {
    "ts0": (22, 2),
    "wdev0": (23, 2),
    "usr0": (20, 1),
    "lun1": (25, 2),
}


class ExactIsrProbe(IsrVictimPolicy):
    """The cached policy, plus an exact rescan of every candidate set."""

    def __init__(self, refresh_ms: float):
        super().__init__(refresh_ms)
        self.differing = 0

    def select(self, candidates, now):
        pick = super().select(candidates, now)
        if ref_isr(candidates, now) is not pick:
            self.differing += 1
        return pick


@pytest.fixture(scope="module")
def context():
    return RunContext(scale="smoke", seed=1)


@pytest.mark.parametrize("trace", sorted(PINNED))
def test_cached_isr_agreement_is_pinned(context, trace):
    ftl = IPUFTL(context.trace_config(trace))
    probe = ExactIsrProbe(ftl.config.reliability.isr_refresh_ms)
    ftl.slc_gc.policy = probe
    probed = Simulator(ftl).run(context.trace(trace))
    assert (probe.scans, probe.differing) == PINNED[trace]
    # The probe only observes: the replay is the plain IPU cell.
    assert (probed.deterministic_dict()
            == context.run(trace, "ipu").deterministic_dict())
