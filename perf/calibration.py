"""Host-speed probe: a fixed pure-Python loop timed between measurements.

It imports nothing from the program, so no change to the program can
move it; only the host can.  The reference 2-vCPU KVM guest runs this
probe at one of two speeds that alternate every few seconds to minutes
(about 1.75x apart, invisible to steal-time accounting), and every
program timing slows with it.  Dividing a timing by a probe taken on the
same CPU under the same conditions cancels that, and multiplying by
:data:`REFERENCE_PROBE_S` turns the ratio back into seconds on the
reference host at its fast speed.
"""

from __future__ import annotations

import time

#: Fastest probe time on the reference host (2-vCPU x86_64 KVM guest,
#: Python 3.11); host seconds times ``REFERENCE_PROBE_S / probe`` are
#: seconds at reference speed.
REFERENCE_PROBE_S = 0.0130
#: Timings per probe; the probe is the fastest of them.
PROBE_TRIES = 3
#: Iterations of the probe loop.  :data:`REFERENCE_PROBE_S` was measured
#: with this count, so it must not change without re-measuring that.
PROBE_LOOP = 100_000


def probe_seconds() -> float:
    """Fastest of :data:`PROBE_TRIES` timings of a fixed dict-and-integer
    loop of :data:`PROBE_LOOP` iterations."""
    best = float("inf")
    for _ in range(PROBE_TRIES):
        start = time.perf_counter()
        counts: dict[int, int] = {}
        acc = 0
        for i in range(PROBE_LOOP):
            key = i & 4095
            counts[key] = counts.get(key, 0) + 1
            acc += (i * 7) % 13
        best = min(best, time.perf_counter() - start)
    return best


def at_reference(seconds: float, probe: float) -> float:
    """``seconds`` measured while the probe read ``probe``, at reference speed."""
    return seconds * REFERENCE_PROBE_S / probe
