"""Pins for the GC drains no golden reaches: static wear levelling and
emergency collection.

No cell under ``results/golden/`` levels wear or runs an emergency
collection that does work, and the small-scale ``run-all`` levels wear
once (small lun1/baseline).  The pins below hold both drains to the
bytes they produced when they were written.

* Wear levelling: the 32-block tiny device with ``wear_leveling_gap=1``
  and ``wear_leveling_period=2`` replays 4,000-request ts0 and wdev0
  traces under every scheme, fault-free and at
  ``FaultConfig.from_rate(3.0)``.  Each cell pins its SLC
  ``leveling_moves`` and the sha256 of its canonical
  ``deterministic_dict()``.
* Emergency GC: IPU on the same device, driven directly, fills 90% of
  the high-density capacity with sequential 16 KiB writes, then
  rewrites random 16 KiB pages.  High-density GC falls behind, and
  ``alloc_mlc_page`` force-collects.  The test pins the write that runs
  the first such collection and the sha256 of the whole op stream.  It
  then calls ``collect_emergency`` twice directly: the first call
  finishes the victim in progress, the second selects a fresh one.

Regenerate a pin only for a deliberate behaviour change.
"""

from __future__ import annotations

import hashlib
import json
import math

import pytest

from repro import IPUFTL, SCHEMES
from repro.faults import FaultConfig, attach_faults
from repro.rng import make_rng
from repro.sim import Simulator
from repro.sim.ops import OpKind
from repro.traces.profiles import profile
from repro.traces.synth import generate

from conftest import tiny_config

TRACES = ("ts0", "wdev0")
SCHEME_NAMES = ("baseline", "mga", "ipu", "delta")
FAULT_RATE = 3.0
SEED = 1

#: ``(trace, scheme, faulty) -> (SLC leveling_moves, sha256 of the
#: canonical deterministic_dict())``.
WEAR_PINS = {
    ("ts0", "baseline", False): (
        3, "a8958e72915411dfc5f88f953779de666c3f356902a3ffc4ed15627e43e7113b"),
    ("ts0", "baseline", True): (
        18, "16d8927dda0422d2d477faedd8eb509b6e4d0807231041954be781693113a065"),
    ("ts0", "mga", False): (
        2, "4cb894ef258279aafdd22c8f3f7d07dcfc2b1f417615b2b3957c811d58ace7a5"),
    ("ts0", "mga", True): (
        5, "fea03c2724bedd0f8783acc57d20927393166eb78d3d0e20b9c3eea6ad2ea5bc"),
    ("ts0", "ipu", False): (
        0, "cbd220aac46f525ac2f888d9d1031042a42e3b6b4b011bd991be83026f2cebd0"),
    ("ts0", "ipu", True): (
        1, "dcd7cc5722c3f822a018b5924d3d5bbdf314fd622e3a9595ac190c3a4feb1f45"),
    ("ts0", "delta", False): (
        2, "deb83123dfbcb39ee02e79398c2c3aa748083cc5cc504fb1abf0d5996d1941c2"),
    ("ts0", "delta", True): (
        6, "dedd0087359b3b4ac904e12e19022db8db4e6c72a933a92887f2eaba8d0113c9"),
    ("wdev0", "baseline", False): (
        3, "033b04956e7568817d256de1eef6f771fec8517c4c7dc176a847b045501d1a9c"),
    ("wdev0", "baseline", True): (
        17, "2d45f3c1ffc1910c199ccc4cf346552ea6435893b44e5d46fd7fdbec86d03701"),
    ("wdev0", "mga", False): (
        2, "80c3c3bfc289dfdf558280f40c2b31e698e1c530edd9252dc2362134667ad39c"),
    ("wdev0", "mga", True): (
        4, "6e25caa26248dfcaad097378de0c1b5472119bc1c86e4c23b732979fab8cbaab"),
    ("wdev0", "ipu", False): (
        0, "87df1c3c2b7c2b409778260a143ea6c46129fcb2936a9b4d0c76a20ee04339bc"),
    ("wdev0", "ipu", True): (
        1, "f38631f702e60b37d2f207d4feec2b6958495994ef0e9521f82f4eeb8353645f"),
    ("wdev0", "delta", False): (
        3, "81ab8460318aefeb4942375adab766682c93042538b2a3025f40541e698cb3d9"),
    ("wdev0", "delta", True): (
        6, "cc41581f3454f79bc0de78b50c6c1df5ee9f6136d06c822f65ca590a9c7466f3"),
}

#: Host writes of the emergency run, the 0-based index of the first one
#: whose emergency collection does work, and the op-stream sha256.
EMERGENCY_WRITES = 3200
FIRST_EMERGENCY = 3097
EMERGENCY_SHA256 = (
    "a9ac6a3306b7ddc50045a6396e3016d6d8f43bbd8e89840f9d50de4d77b53526")


def canonical_sha256(result) -> str:
    """sha256 of ``deterministic_dict()`` as sorted-key JSON."""
    blob = json.dumps(result.deterministic_dict(), sort_keys=True)
    return hashlib.sha256(blob.encode()).hexdigest()


def op_line(op) -> bytes:
    """One op as text: enum names, then every other field's repr."""
    fields = (op.kind.name, op.cause.name, *op[1:5], *op[6:])
    return repr(fields).encode()


@pytest.fixture(scope="module")
def traces():
    return {name: generate(profile(name), n_requests=4000, seed=SEED,
                           mean_interarrival_ms=0.6) for name in TRACES}


def test_every_scheme_levels_wear_on_every_trace():
    """The pins reach the drain: no (trace, scheme) pair leaves it idle."""
    for trace in TRACES:
        for scheme in SCHEME_NAMES:
            assert (WEAR_PINS[(trace, scheme, False)][0]
                    + WEAR_PINS[(trace, scheme, True)][0]) > 0, (trace, scheme)


@pytest.mark.parametrize("faulty", [False, True], ids=["clean", "faulty"])
@pytest.mark.parametrize("scheme", SCHEME_NAMES)
@pytest.mark.parametrize("trace", TRACES)
def test_wear_levelling_replay_is_pinned(traces, trace, scheme, faulty):
    ftl = SCHEMES[scheme](tiny_config(wear_leveling_gap=1,
                                      wear_leveling_period=2))
    attach_faults(ftl, FaultConfig.from_rate(FAULT_RATE) if faulty else None,
                  seed=SEED)
    result = Simulator(ftl).run(traces[trace])
    assert ((ftl.slc_wear.leveling_moves, canonical_sha256(result))
            == WEAR_PINS[(trace, scheme, faulty)])


def test_emergency_collection_op_stream_is_pinned():
    config = tiny_config()
    ftl = IPUFTL(config)
    geometry = config.geometry
    spp = geometry.subpages_per_page
    fill = math.ceil(0.9 * len(ftl.flash.mlc_block_ids)
                     * geometry.mlc_pages_per_block)
    lpns = list(range(fill)) + make_rng(SEED, key="drain-pin").integers(
        0, fill, EMERGENCY_WRITES - fill).tolist()

    gc = ftl.mlc_gc
    collect = gc.collect_emergency
    worked: list[int] = []
    index = 0

    def counted(now):
        ops = collect(now)
        if ops:
            worked.append(index)
        return ops

    gc.collect_emergency = counted
    digest = hashlib.sha256()
    for index, lpn in enumerate(lpns):
        for op in ftl.handle_write(list(range(lpn * spp, (lpn + 1) * spp)),
                                   index * 0.5):
            digest.update(op_line(op))
    del gc.collect_emergency

    now = EMERGENCY_WRITES * 0.5
    finished = collect(now)
    assert not gc.draining
    fresh = collect(now)
    assert [op.kind for op in fresh].count(OpKind.ERASE) == 1
    for op in finished + fresh:
        digest.update(op_line(op))
    ftl.check_consistency()
    assert worked and worked[0] == FIRST_EMERGENCY
    assert digest.hexdigest() == EMERGENCY_SHA256
