"""Figure 2: RBER of conventional vs partial programming over P/E cycles."""

from __future__ import annotations

from .artifact import Artifact
from .runner import default_context

#: P/E cycle grid of the reproduction (the paper plots 0..5000-ish).
PE_GRID = (500, 1000, 2000, 3000, 4000, 5000, 6000, 8000)


def build(scale: str = "small", seed: int = 1) -> Artifact:
    """Evaluate both calibrated curves on the P/E grid."""
    ctx = default_context(scale, seed)
    from ..error.rber import RberModel
    model = RberModel(ctx.config().reliability)
    curves = model.curve(list(PE_GRID))
    rows = [
        {
            "P/E cycles": int(pe),
            "conventional": f"{conv:.3e}",
            "partial": f"{part:.3e}",
            "gap": f"{part / conv:.3f}x",
        }
        for pe, conv, part in zip(curves["pe"], curves["conventional"],
                                  curves["partial"])
    ]
    from ..metrics.charts import line_chart
    chart = line_chart(
        {"conventional": list(curves["conventional"]),
         "partial": list(curves["partial"])},
        x_labels=list(PE_GRID), log_y=True, height=10,
        title="RBER vs P/E cycles (log scale)")
    return Artifact(
        id="fig2",
        title="Bit error rate: conventional vs partial programming",
        rows=rows,
        chart=chart,
        scale=scale,
        notes=("Calibration anchors (Zhang et al., FAST'16): conventional "
               "2.8e-4 and partial 3.8e-4 at 4000 P/E; the absolute gap "
               "widens with wear."),
    )
