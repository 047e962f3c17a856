"""The paper's contribution: Intra-page Update (IPU).

* :mod:`repro.core.intra_page` — the in-page update decision: can an
  update be partial-programmed into the free slots of the page that holds
  the previous version of the data?
* :mod:`repro.core.ipu_ftl` — the full scheme: intra-page updates, the
  Work/Monitor/Hot level hierarchy with upgraded movement on overflow and
  degraded movement during GC, and the ISR victim policy (Equations 1-2).

Block levels and the ISR arithmetic live in :mod:`repro.ftl.levels` and
:mod:`repro.ftl.hotcold` (the framework layer) and are re-exported here.
"""

from .. import lazy_exports

_EXPORTS = {
    "BlockLevel": "..ftl.levels", "SLC_LEVELS": "..ftl.levels",
    "block_isr": "..ftl.hotcold", "block_coldness": "..ftl.hotcold",
    "coldness_weight": "..ftl.hotcold",
    "IntraPagePlan": ".intra_page", "plan_intra_page_update": ".intra_page",
    "IPUFTL": ".ipu_ftl",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
