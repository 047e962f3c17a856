"""Metric models and reporting helpers.

Most runtime counters live with the components that produce them (the
flash array, the FTL stats, the GC stats); this package adds the analytic
models the paper reports on top — mapping-table memory (Figure 11) — plus
latency-distribution helpers and plain-text table rendering used by the
experiment harnesses and the CLI.
"""

from .. import lazy_exports

_EXPORTS = {
    "MappingBreakdown": ".memory", "mapping_breakdown": ".memory",
    "latency_distribution": ".latency", "percentile_summary": ".latency",
    "format_table": ".report", "format_comparison": ".report",
    "bar_chart": ".charts", "grouped_bar_chart": ".charts",
    "line_chart": ".charts", "distribution_chart": ".charts",
    "TimelineRecorder": ".timeline", "TimelineSample": ".timeline",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
