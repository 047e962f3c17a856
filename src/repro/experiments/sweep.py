"""Figures 13 and 14: behaviour under varied device wear (P/E cycles).

The paper ages the device to four P/E levels and shows that both I/O
latency and read error rate grow with wear while IPU's advantage over MGA
persists ("fine scalability on varieties of SSD use stages").  Both
figures share one simulation sweep; the sweep uses shortened traces
(``SWEEP_LENGTH_FACTOR``) to keep the 4x matrix affordable.
"""

from __future__ import annotations

from ..traces.profiles import TRACE_NAMES
from .artifact import Artifact
from .runner import SCHEME_ORDER, default_context

#: Wear levels swept (the paper's default is 4000).
PE_LEVELS = (1000, 2000, 4000, 8000)
#: Trace-length multiplier for sweep runs.
SWEEP_LENGTH_FACTOR = 0.35
#: Traces used in the sweep (all six, as in the paper).
SWEEP_TRACES = TRACE_NAMES


def _build(scale: str, seed: int, metric: str, fig_id: str, title: str,
           fmt: str, paper_note: str) -> Artifact:
    ctx = default_context(scale, seed, SWEEP_LENGTH_FACTOR)
    # One fan-out covers the full wear-level matrix; the loops below then
    # read from the memo.
    ctx.run_cells([(t, s, pe) for pe in PE_LEVELS for t in SWEEP_TRACES
                   for s in SCHEME_ORDER])
    rows = []
    for pe in PE_LEVELS:
        for scheme in SCHEME_ORDER:
            values = [
                getattr(ctx.run(trace, scheme, pe=pe), metric)
                for trace in SWEEP_TRACES
            ]
            rows.append({
                "P/E": pe,
                "Scheme": scheme,
                "mean": format(sum(values) / len(values), fmt),
                **{trace: format(v, fmt)
                   for trace, v in zip(SWEEP_TRACES, values)},
            })
    from ..metrics.charts import line_chart
    series = {
        scheme: [
            sum(getattr(ctx.run(t, scheme, pe=pe), metric)
                for t in SWEEP_TRACES) / len(SWEEP_TRACES)
            for pe in PE_LEVELS
        ]
        for scheme in SCHEME_ORDER
    }
    chart = line_chart(series, x_labels=list(PE_LEVELS),
                       log_y=metric == "read_error_rate",
                       title=f"{title} (mean over traces)")
    return Artifact(
        id=fig_id, title=title, rows=rows, chart=chart, scale=scale,
        notes=paper_note)


def build_latency(scale: str = "small", seed: int = 1) -> Artifact:
    """Figure 13: I/O latency under varied P/E cycles."""
    return _build(
        scale, seed, "avg_latency_ms", "fig13",
        "I/O latency under varied P/E cycles", ".4f",
        "Expected shape: latency grows with wear (longer ECC decode), and "
        "IPU <= MGA at every wear level.",
    )


def build_error_rate(scale: str = "small", seed: int = 1) -> Artifact:
    """Figure 14: read error rate under varied P/E cycles."""
    return _build(
        scale, seed, "read_error_rate", "fig14",
        "Bit error rate under varied P/E cycles", ".4e",
        "Expected shape: error rate grows superlinearly with wear; "
        "IPU < MGA at every wear level.",
    )
