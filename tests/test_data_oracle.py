"""Data-version oracle: every written LSN reads back its latest version.

The simulator models no data contents, so the oracle tags them.  It wraps
the write primitive (:meth:`repro.ftl.base.BaseFTL.place`), through which
every host write, GC move and fault move of every scheme lands, and
records which version of which LSN each programmed subpage holds.  A host
write mints a fresh version for each of its LSNs; a GC or fault move
copies the version from the LSN's current mapping (the copy it moves).
After every request, for every LSN written so far:

* the LSN is mapped,
* it maps to the only valid subpage storing that LSN,
* that subpage carries the LSN's latest version.

Two documented exceptions:

* MGA queues GC evictions: an LSN in ``MGAFTL._evict_pending`` stays
  mapped to its invalidated victim slot (which still stores it) until
  ``_flush_evictions`` programs it, so it has no valid copy in between;
* a successful ``DeltaFTL._try_delta_append`` updates the LSN's data in
  place: the mapping stays and the version moves on.

Hypothesis draws the trace and fault seeds for all four schemes, fault
free and under program failures, read reclaims and power loss.
"""

from __future__ import annotations

import dataclasses
import itertools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SCHEMES
from repro.faults import FaultConfig, attach_faults
from repro.sim import Simulator
from repro.sim.ops import Cause
from repro.traces.profiles import profile
from repro.traces.synth import generate

from conftest import tiny_config

SCHEME_NAMES = ("baseline", "mga", "ipu", "delta")

#: ``from_rate(1.0)`` with power loss twenty times as frequent, so every
#: run also sees torn-page repairs moving data through the primitive.
FAULTY = dataclasses.replace(FaultConfig.from_rate(1.0),
                             power_loss_per_ms=0.02)

#: Each example checks every written LSN after each of its requests, so
#: keep the count low: the simplest seeds plus one random draw.
SETTINGS = settings(max_examples=2, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


class VersionOracle:
    """Shadow ``LSN -> latest version`` map checked against the device."""

    def __init__(self, ftl):
        self.ftl = ftl
        self.latest: dict[int, int] = {}
        #: ``(block, page, slot) -> (lsn, version)`` of its last program.
        self.tags: dict[tuple[int, int, int], tuple[int, int]] = {}
        self.moves = 0
        self._versions = itertools.count(1)
        self._place = ftl.place
        ftl.place = self._tagged_place
        if hasattr(ftl, "_try_delta_append"):
            self._append = ftl._try_delta_append
            ftl._try_delta_append = self._tagged_append

    def _tagged_place(self, block, page, slots, lsns, now, cause):
        if cause is Cause.HOST:
            versions = [next(self._versions) for _ in lsns]
            self.latest.update(zip(lsns, versions))
        else:
            self.moves += 1
            lookup = self.ftl.subpage_map.lookup
            versions = []
            for lsn in lsns:
                ppa = lookup(lsn)
                assert ppa is not None, f"{cause.name} move of unmapped LSN {lsn}"
                versions.append(self.tags[ppa][1])
        placed = self._place(block, page, slots, lsns, now, cause)
        _, block, page = placed
        for lsn, slot, version in zip(lsns, slots, versions):
            self.tags[(block.block_id, page, slot)] = (lsn, version)
        return placed

    def _tagged_append(self, chunk, mappings, now, ops):
        if not self._append(chunk, mappings, now, ops):
            return False
        for lsn, ppa in zip(chunk, mappings):
            version = next(self._versions)
            self.latest[lsn] = version
            self.tags[ppa] = (lsn, version)
        return True

    def check(self, index: int, now: float) -> None:
        """Simulator observer: assert the oracle after request ``index``."""
        ftl = self.ftl
        flash = ftl.flash
        blocks = flash.blocks
        lookup = ftl.subpage_map.lookup
        pending = getattr(ftl, "_evict_pending", ())
        live = 0
        for lsn, version in self.latest.items():
            ppa = lookup(lsn)
            where = f"{ftl.scheme_name} request {index}: LSN {lsn}"
            assert ppa is not None, f"{where} is unmapped"
            assert self.tags.get(ppa) == (lsn, version), (
                f"{where} maps to {ppa} holding {self.tags.get(ppa)}, "
                f"not version {version}")
            block = blocks[ppa.block]
            assert block.slot_lsn[ppa.page, ppa.slot] == lsn, (
                f"{where} maps to {ppa}, which stores another LSN")
            valid = block.valid_mask[ppa.page] >> ppa.slot & 1
            if lsn in pending:
                assert not valid, f"{where} is queued and still valid"
            else:
                assert valid, f"{where} maps to invalid subpage {ppa}"
                live += 1
        assert len(ftl.subpage_map) == len(self.latest)
        # Every valid subpage is a mapped one: no stale copy survives.
        n_valid = int(flash.slc_state.valid.sum()) + int(
            flash.mlc_state.valid.sum())
        assert n_valid == live, (
            f"{ftl.scheme_name} request {index}: {n_valid} valid subpages "
            f"for {live} live LSNs")


@SETTINGS
@given(trace_seed=st.integers(1, 10_000), fault_seed=st.integers(0, 2**16))
@pytest.mark.parametrize("faults", [None, FAULTY], ids=["clean", "faulty"])
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
def test_every_lsn_reads_back_its_latest_version(scheme, faults, trace_seed,
                                                 fault_seed):
    trace = generate(profile("ts0"), n_requests=1000, seed=trace_seed,
                     mean_interarrival_ms=0.6)
    ftl = SCHEMES[scheme](tiny_config(seed=trace_seed))
    attach_faults(ftl, faults, seed=fault_seed)
    oracle = VersionOracle(ftl)
    result = Simulator(ftl, observer=oracle.check).run(trace)
    assert oracle.moves > 0, "no GC or fault move exercised the oracle"
    if faults is not None:
        assert result.program_failures > 0
        assert result.power_loss_events > 0
