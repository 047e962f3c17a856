"""Figure 12: computation overhead of GC victim selection.

Paper: IPU's ISR policy costs only ~1.2% more scan time than the greedy
policy, staying under 2.48 ms per search — feasible because the IS'
coldness terms are stored per page (Section 4.4.1) rather than recomputed
per scan; our :class:`~repro.ftl.victim.IsrVictimPolicy` mirrors that
caching.

Two cost channels are reported per policy:

* **modelled ms/scan** — deterministic firmware-cost model: every
  candidate block examined during selection is charged a per-block
  constant (ISR pays 2.5x greedy for the stored IS' record read).  This
  is the reproduction target; it cannot be distorted by how fast the
  *simulator* happens to evaluate a scan.  There is no incremental
  victim index: every scan walks the region's FULL blocks, read off its
  ``state_code`` column, so host ms/scan may move between versions
  while the modelled columns do not.
* **host ms/scan** — measured Python wall time, a nondeterministic
  diagnostic retained for context.
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
        base_wall = (base.gc_scan_seconds / base.gc_scans * 1e3
                     if base.gc_scans else 0.0)
        ipu_wall = (ipu.gc_scan_seconds / ipu.gc_scans * 1e3
                    if ipu.gc_scans else 0.0)
        rows.append({
            "Trace": trace,
            "greedy scans": base.gc_scans,
            "greedy modelled ms/scan": f"{base_model:.6f}",
            "ISR scans": ipu.gc_scans,
            "ISR modelled ms/scan": f"{ipu_model:.6f}",
            "ISR/greedy (modelled)": (f"{ipu_model / base_model:.2f}x"
                                      if base_model > 0 else "-"),
            "greedy host ms/scan": f"{base_wall:.4f}",
            "ISR host ms/scan": f"{ipu_wall:.4f}",
        })
    return Artifact(
        id="fig12",
        title="Computation overhead in GC processing",
        rows=rows,
        scale=scale,
        notes=("Paper: ISR adds ~1.2% over greedy and needs <2.48 ms per "
               "search.  'Modelled' columns charge a deterministic "
               "per-candidate firmware cost (ISR reads the stored 4-byte "
               "IS' record on top of the invalid counter) and are the "
               "reproduction target; 'host' columns are interpreted-Python "
               "wall time, kept as a diagnostic."),
    )
