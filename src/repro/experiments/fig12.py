"""Figure 12: computation overhead of GC victim selection.

Paper: IPU's ISR policy costs only ~1.2% more scan time than the greedy
policy, staying under 2.48 ms per search — feasible because the IS'
coldness terms are stored per page (Section 4.4.1) rather than recomputed
per scan; our :class:`~repro.ftl.victim.IsrVictimPolicy` mirrors that
caching.

The cost reported per policy is **modelled ms/scan**, a deterministic
firmware-cost model: every candidate block examined during selection is
charged a per-block constant (ISR pays 2.5x greedy for the stored IS'
record read).  It cannot be distorted by how fast the *simulator*
happens to evaluate a scan, so the artifact regenerates byte for byte.
The ISR/greedy ratio is that 2.5x constant times the ratio of the two
policies' candidate counts per scan.  The host wall time of the scans
stays on the result as ``gc_scan_seconds``, a diagnostic no artifact
reports.
"""

from __future__ import annotations

from ..ftl.victim import (
    MODELLED_SCAN_NS_PER_BLOCK_GREEDY,
    MODELLED_SCAN_NS_PER_BLOCK_ISR,
)
from ..traces.profiles import TRACE_NAMES
from .artifact import Artifact
from .runner import default_context


def build(scale: str = "small", seed: int = 1) -> Artifact:
    """Victim-selection cost: Baseline's greedy vs IPU's ISR."""
    ctx = default_context(scale, seed)
    rows = []
    for trace in TRACE_NAMES:
        base = ctx.run(trace, "baseline")
        ipu = ctx.run(trace, "ipu")
        base_model = (base.gc_scan_blocks * MODELLED_SCAN_NS_PER_BLOCK_GREEDY
                      * 1e-6 / base.gc_scans if base.gc_scans else 0.0)
        ipu_model = (ipu.gc_scan_blocks * MODELLED_SCAN_NS_PER_BLOCK_ISR
                     * 1e-6 / ipu.gc_scans if ipu.gc_scans else 0.0)
        rows.append({
            "Trace": trace,
            "greedy scans": base.gc_scans,
            "greedy modelled ms/scan": f"{base_model:.6f}",
            "ISR scans": ipu.gc_scans,
            "ISR modelled ms/scan": f"{ipu_model:.6f}",
            "ISR/greedy (modelled)": (f"{ipu_model / base_model:.2f}x"
                                      if base_model > 0 else "-"),
        })
    return Artifact(
        id="fig12",
        title="Computation overhead in GC processing",
        rows=rows,
        scale=scale,
        notes=("Paper: ISR adds ~1.2% over greedy and needs <2.48 ms per "
               "search.  'Modelled' columns charge a deterministic "
               "per-candidate firmware cost: ISR reads the stored 4-byte "
               "IS' record on top of the invalid counter, so it pays 2.5x "
               "greedy's charge per candidate.  The ISR/greedy ratio is "
               "that 2.5x times the ratio of the two policies' candidates "
               "per scan, a model choice, not a measurement."),
    )
