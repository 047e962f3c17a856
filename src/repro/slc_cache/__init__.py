"""SLC-mode cache introspection.

The cache's *mechanics* live in the FTL layer (allocation in
:mod:`repro.ftl.allocator`, movement policies in the schemes, collection
in :mod:`repro.ftl.gc`); this package provides the read-only *view* of the
cache that examples, experiments and operators consume: per-level
occupancy, free headroom, hotness composition.
"""

from .. import lazy_exports

_EXPORTS = {
    "SlcCacheView": ".region", "LevelStats": ".region",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
