"""Host memory of a paper-scale device follows what a replay touches.

A Table 2 device has 65,536 blocks, and most of them are never opened
by a replay.  Building one must not pay for all of them: the region
columns are zero-allocated (the OS backs a page once it is written),
a free block holds no per-page lists, and the simulator's chip/channel
table repeats one pair per chip.  The test builds
``SCHEMES["ipu"](paper_config(1))`` and its ``Simulator`` in a fresh
interpreter and bounds how far the build grows its resident set.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
STATUS = Path("/proc/self/status")

#: Resident-set growth a paper-scale ipu FTL and its simulator may cost.
BOUND_MIB = 150

#: Child program: print the VmRSS growth (KiB) of the paper-scale build.
#: A smoke-scale build first loads every module the build imports, so
#: the growth is the device's alone.
CHILD = textwrap.dedent("""
    import re

    from repro import SCHEMES
    from repro.config import paper_config, scaled_config
    from repro.sim.simulator import Simulator

    def rss_kib():
        with open("/proc/self/status", encoding="ascii") as fh:
            return int(re.search(r"^VmRSS:\\s+(\\d+) kB", fh.read(),
                                 re.MULTILINE).group(1))

    Simulator(SCHEMES["ipu"](scaled_config("smoke", seed=1)))
    config = paper_config(1)
    before = rss_kib()
    ftl = SCHEMES["ipu"](config)
    sim = Simulator(ftl)
    print(rss_kib() - before)
""")


def _has_vmrss() -> bool:
    try:
        return "VmRSS:" in STATUS.read_text(encoding="ascii")
    except OSError:
        return False


@pytest.mark.skipif(not _has_vmrss(), reason="no VmRSS in /proc/self/status")
def test_paper_scale_build_stays_within_its_memory_bound():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run([sys.executable, "-c", CHILD], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    grown_mib = int(proc.stdout) / 1024
    assert grown_mib <= BOUND_MIB, (
        f"a paper-scale ipu FTL and Simulator grew RSS by {grown_mib:.0f} "
        f"MiB (bound {BOUND_MIB} MiB)")
