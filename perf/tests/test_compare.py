"""Verdicts and exit codes of ``run.py --compare``."""

import json

from run import compare, exact_verdict, load_benchmark, verdict


def suite(tmp_path, name, wall, failed=0, ipu_gain=None):
    """A suite of write-gc runs, seeds 0, 1, ...; ``ipu_gain`` gives the
    exact metric per seed (default: a different value on every seed)."""
    e2e = {m["name"]: 1.0 for m in load_benchmark()["end_to_end"]}
    gains = ipu_gain or [20.0 + seed for seed in range(len(wall))]
    runs = [{"workload": "write-gc", "seed": seed,
             "e2e": dict(e2e, wall_s=w), "exact": {"sim.ipu_gain_pct": g},
             "attempted": 10, "failed": failed}
            for seed, (w, g) in enumerate(zip(wall, gains))]
    path = tmp_path / name
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_compare_exit_codes(tmp_path, capsys):
    base = suite(tmp_path, "base.json", [1.0, 1.01, 0.99])
    assert compare(base, suite(tmp_path, "same.json", [1.0, 0.99, 1.01])) == 0
    assert compare(base, suite(tmp_path, "slow.json", [1.5, 1.6, 1.55])) == 1
    assert compare(base, suite(tmp_path, "fail.json", [1.0, 1.0, 1.0],
                               failed=1)) == 1
    out = capsys.readouterr().out
    assert "sim.ipu_gain_pct" in out and "identical" in out


def test_exact_change_on_one_seed_fails(tmp_path, capsys):
    """Base values differ across seeds, so their spread is large; a change
    on a single seed must still be caught."""
    base = suite(tmp_path, "base.json", [1.0, 1.0, 1.0],
                 ipu_gain=[5.0, 20.0, 40.0])
    moved = suite(tmp_path, "moved.json", [1.0, 1.0, 1.0],
                  ipu_gain=[5.0, 20.5, 40.0])
    assert compare(base, moved) == 1
    assert "changed (1/3 seeds)" in capsys.readouterr().out
    # A change in the better direction is a model change too.
    better = suite(tmp_path, "better.json", [1.0, 1.0, 1.0],
                   ipu_gain=[5.0, 20.0, 41.0])
    assert compare(base, better) == 1


def test_exact_verdict():
    assert exact_verdict({1: 0.5, 2: 0.7}, {1: 0.5, 2: 0.7}) == "identical"
    assert exact_verdict({1: 0.5, 2: 0.7}, {1: 0.5, 2: 0.7000001}) == \
        "changed (1/2 seeds)"
    # A value only one side reports is a change.
    assert exact_verdict({1: 0.5}, {1: 0.5, 2: 0.7}) == "changed (1/2 seeds)"


def test_worse_beyond_bound():
    assert verdict([1.0, 1.0, 1.01], [1.2, 1.21, 1.2], "lower", 0.1) == "worse"


def test_within_bound_is_unchanged():
    assert verdict([1.0, 1.0, 1.01], [1.05, 1.05, 1.06],
                   "lower", 0.1) == "unchanged"


def test_gain_beyond_spread_is_better():
    assert verdict([1.0, 1.0, 1.01], [0.8, 0.81, 0.8], "lower", 0.1) == "better"
    assert verdict([10.0, 10.0, 10.1], [12.0, 12.0, 12.1],
                   "higher", 0.1) == "better"


def test_noisy_overlapping_runs_are_unresolved():
    assert verdict([1.0, 1.5, 0.7, 1.2], [1.3, 0.8, 1.6, 1.1],
                   "lower", 0.1) == "unresolved"


def test_noisy_but_separated_runs_resolve():
    assert verdict([1.0, 1.3, 1.1, 1.2], [1.6, 2.1, 1.8, 1.9],
                   "lower", 0.1) == "worse"
