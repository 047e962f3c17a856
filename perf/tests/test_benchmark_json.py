"""``BENCHMARK.json`` agrees with itself and with the benchmark code."""

import json
import re
import subprocess
import sys

from layers import LAYER_METRICS
from workloads import ROOT, WORKLOADS

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_keys_and_limits():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert isinstance(BENCH["run_seconds"], int)
    assert 1 <= BENCH["run_seconds"] <= 60
    assert 2 <= len(BENCH["workloads"]) <= 8
    assert 1 <= len(BENCH["end_to_end"]) <= 16
    assert 1 <= len(BENCH["per_layer"]) <= 128
    for path in BENCH["paths"]:
        assert (ROOT / path).is_dir()
    command = BENCH["command"]
    assert len(command) <= 32 and all(len(arg) <= 200 for arg in command)
    # The script the command runs lives under one of the paths.
    assert any(command[1].startswith(f"{p.rstrip('/')}/")
               for p in BENCH["paths"])
    assert (ROOT / command[1]).is_file()
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in BENCH[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)


def test_metric_entries():
    for metric in BENCH["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert UNIT.match(metric["unit"])
        assert metric["better"] in ("lower", "higher")
        assert 0 < metric["bound"] <= 0.25
        assert metric["name"] in ("wall_s", "setup_s", "peak_rss_mb")
    setup = next(m for m in BENCH["end_to_end"] if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    for metric in BENCH["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
        assert UNIT.match(metric["unit"])


def test_matches_the_code():
    assert [(w["name"], w["why"]) for w in BENCH["workloads"]] == \
        [(w.name, w.why) for w in WORKLOADS.values()]
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in BENCH["workloads"])
    assert BENCH["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in LAYER_METRICS]


def test_result_line_reports_every_declared_metric():
    from run import result_line

    detail = {"correct": True, "attempted": 3, "failed": 0,
              "e2e": {m["name"]: 1.0 for m in BENCH["end_to_end"]},
              "layers": {"metrics": {m["name"]: 0.5
                                     for m in BENCH["per_layer"]}}}
    for trace, key in ((False, "end_to_end"), (True, "per_layer")):
        line = result_line(detail, trace)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert list(line["metrics"]) == [m["name"] for m in BENCH[key]]
        assert all(set(v) == {"value", "unit"}
                   for v in line["metrics"].values())


def test_predictions_name_real_metrics_and_workloads():
    e2e = {m["name"] for m in BENCH["end_to_end"]}
    for metric in LAYER_METRICS:
        for target, workloads in metric.moves:
            assert target in e2e, (metric.name, target)
            assert set(workloads) <= set(WORKLOADS), (metric.name, workloads)


def test_refuses_to_run_without_the_program(tmp_path):
    """A directory holding only the benchmark exits non-zero, no result."""
    import shutil

    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "lint", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
