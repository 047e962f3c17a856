"""The claims the committed reference artifacts make.

``results/<id>.json`` holds every artifact at the reference setup
(``--scale small --seed 1``; ``python results/regenerate.py``).  The
extension studies and the scoreboard each state a claim in EXPERIMENTS.md;
this test reads the claim off the committed rows, so a regenerated
reference that breaks one fails here.
"""

import json
from pathlib import Path

RESULTS = Path(__file__).resolve().parents[1] / "results"


def _rows(experiment_id):
    artifact = json.loads((RESULTS / f"{experiment_id}.json").read_text())
    assert artifact["scale"] == "small"
    assert artifact["rows"], experiment_id
    return artifact["rows"]


def test_committed_artifacts_hold_their_claims():
    # ext-delta: IPU's partial passes never disturb a valid subpage.
    delta = [r for r in _rows("ext-delta") if r["Scheme"] == "ipu"]
    assert delta and all(r["disturbed valid"] == 0 for r in delta)

    # ext-translation: MGA's two-level table misses more on every trace.
    misses = {(r["Trace"], r["Scheme"]): r["misses"]
              for r in _rows("ext-translation")}
    traces = {trace for trace, _ in misses}
    assert traces
    for trace in traces:
        assert misses[(trace, "mga")] > misses[(trace, "ipu")], trace

    # ext-qd: at QD 64 the closed loop sustains more KIOPS under IPU than
    # under Baseline (the front-end rows report no KIOPS).
    kiops = {r["Scheme"]: float(r["KIOPS"]) for r in _rows("ext-qd")
             if r["QD"] == 64 and r["mode"] == "closed"}
    assert kiops["ipu"] > kiops["baseline"]

    # ext-seeds: the headline latency gain holds for every seed.
    seeds = _rows("ext-seeds")
    assert all(r["IPU vs Base lat"].startswith("-") for r in seeds)

    # ext-cache: a bigger SLC cache never evicts more.
    evicted = [r["evicted"] for r in _rows("ext-cache")]
    assert evicted == sorted(evicted, reverse=True)

    # summary: every shape holds but the documented IPU-vs-MGA inversion.
    shapes = [r["Shape"] for r in _rows("summary")]
    assert shapes.count("DEVIATES") <= 1
