"""Fixture- and mutation-driven tests for the K (cache-key soundness)
and P (checkpoint/pickle safety) lint families.

Three layers of coverage:

* good/bad fixture pairs per rule, linted with the real engine — the
  K001 bad case is interprocedural, with the config read two call
  edges below the cached entry point;
* CLI plumbing the families share with everyone else: baseline
  round-trip, SARIF driver rules, ``--changed-only`` scoping, and the
  baseline-rot guard (exit 2 on entries that can never match again);
* mutation demos against a copy of the committed tree: deleting a
  field from a canonical-key emitter trips K001+K003, removing the
  ``_rebind_views()`` call from ``Block.__setstate__`` trips P002.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import textwrap
from pathlib import Path

from repro.analysis import run_lint
from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]


def lint_tree(tmp_path: Path, files: "dict[str, str]",
              select: "tuple[str, ...]" = ("K", "P")):
    """Write a fixture tree and lint it with the K/P families."""
    for relpath, code in files.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code), encoding="utf-8")
    result = run_lint(tmp_path, select=list(select))
    return [v.rule for v in result.violations], result


# --------------------------------------------------------------------------
# K001 — config field read in a cached cell but missing from the key

#: The read of ``cfg.fault_rate`` happens in ``_interarrival``, two call
#: edges below the cached entry point (simulate_fleet_device ->
#: run_device -> _interarrival), and the emitter lives in a third file.
K001_READS = {
    "fleet/runner.py": """
        from fleet.config import FleetConfig

        def run_device(cfg: FleetConfig):
            return _interarrival(cfg)

        def _interarrival(cfg: FleetConfig):
            return 1.0 / (1.0 + cfg.fault_rate)
        """,
    "experiments/workers.py": """
        from fleet.runner import run_device

        def simulate_fleet_device(cfg):
            return run_device(cfg)
        """,
}

K001_BAD_CONFIG = {
    "fleet/config.py": """
        class FleetConfig:
            n_devices: int
            fault_rate: float

            def to_dict(self) -> dict:
                return {"n_devices": self.n_devices}
        """,
}

K001_GOOD_CONFIG = {
    "fleet/config.py": """
        class FleetConfig:
            n_devices: int
            fault_rate: float

            def to_dict(self) -> dict:
                return {"n_devices": self.n_devices,
                        "fault_rate": self.fault_rate}
        """,
}


def test_k001_flags_interprocedural_read_of_unkeyed_field(tmp_path):
    rules, result = lint_tree(tmp_path, {**K001_BAD_CONFIG, **K001_READS})
    k001 = [v for v in result.violations if v.rule == "K001"]
    assert k001, rules
    assert k001[0].path == "fleet/runner.py"
    assert "fault_rate" in k001[0].message
    assert "simulate_fleet_device" in k001[0].message
    # The structural check fires at the emitter too.
    assert "K003" in rules


def test_k001_quiet_when_field_reaches_the_key(tmp_path):
    rules, _ = lint_tree(tmp_path, {**K001_GOOD_CONFIG, **K001_READS})
    assert "K001" not in rules and "K003" not in rules


def test_k001_quiet_outside_cached_call_tree(tmp_path):
    # Same unkeyed read, but nothing reachable from an entry point.
    files = {**K001_BAD_CONFIG,
             "fleet/runner.py": K001_READS["fleet/runner.py"]}
    rules, _ = lint_tree(tmp_path, files)
    assert "K001" not in rules  # K003 may still fire at the emitter


# --------------------------------------------------------------------------
# K002 — ambient input inside a cached cell

K002_BODY = """
    import os

    def simulate_cell(spec):
        return _run(spec)

    def _run(spec):
        return os.environ.get("REPRO_TWEAK", "0")
    """


def test_k002_flags_env_read_in_cached_cell(tmp_path):
    rules, result = lint_tree(tmp_path, {"experiments/workers.py": K002_BODY})
    assert "K002" in rules
    (v,) = [v for v in result.violations if v.rule == "K002"]
    assert "os.environ" in v.message and "simulate_cell" in v.message


def test_k002_allowlists_harness_files(tmp_path):
    # The same read inside bench.py (host-side harness) is accepted.
    rules, _ = lint_tree(tmp_path, {"bench.py": K002_BODY})
    assert "K002" not in rules


def test_k002_flags_file_read_two_edges_down(tmp_path):
    rules, _ = lint_tree(tmp_path, {"experiments/workers.py": """
        def simulate_cell(spec):
            return _middle(spec)

        def _middle(spec):
            return _leaf(spec)

        def _leaf(spec):
            with open("tweaks.json") as fh:
                return fh.read()
        """})
    assert "K002" in rules


# --------------------------------------------------------------------------
# K003 — canonical-key emitter completeness

def test_k003_flags_explicit_emitter_omitting_a_field(tmp_path):
    rules, result = lint_tree(tmp_path, {"traces/model.py": """
        class TraceProfile:
            name: str
            read_fraction: float

            def to_dict(self) -> dict:
                return {"name": self.name}
        """})
    assert rules == ["K003"]
    assert "read_fraction" in result.violations[0].message


def test_k003_accepts_structural_emitter(tmp_path):
    rules, _ = lint_tree(tmp_path, {"traces/model.py": """
        import dataclasses

        class TraceProfile:
            name: str
            read_fraction: float

            def to_dict(self) -> dict:
                return dataclasses.asdict(self)
        """})
    assert "K003" not in rules


# --------------------------------------------------------------------------
# P001 — loop-carry state vs the pickle protocol

P001_BAD = """
    class OpenLoopReplay:
        def feed(self, chunk):
            self.now = 0.0
            self.n = 0

        def __getstate__(self):
            return {"n": self.n}

        def __setstate__(self, state):
            self.n = state["n"]
    """

P001_GOOD = """
    class OpenLoopReplay:
        def feed(self, chunk):
            self.now = 0.0
            self.n = 0

        def __getstate__(self):
            return {"n": self.n, "now": self.now}

        def __setstate__(self, state):
            self.n = state["n"]
            self.now = state["now"]
    """


def test_p001_flags_getstate_dropping_loop_carry_attr(tmp_path):
    rules, result = lint_tree(tmp_path, {"fleet/replay.py": P001_BAD})
    assert "P001" in rules
    (v,) = [v for v in result.violations if v.rule == "P001"]
    assert "'now'" in v.message


def test_p001_quiet_when_state_round_trips(tmp_path):
    rules, _ = lint_tree(tmp_path, {"fleet/replay.py": P001_GOOD})
    assert "P001" not in rules


def test_p001_quiet_without_custom_getstate(tmp_path):
    # Default pickling keeps __dict__, so plain drivers are fine.
    rules, _ = lint_tree(tmp_path, {"fleet/replay.py": """
        class OpenLoopReplay:
            def feed(self, chunk):
                self.now = 0.0
        """})
    assert "P001" not in rules


def test_p001_flags_unpicklable_loop_carry_value(tmp_path):
    rules, result = lint_tree(tmp_path, {"fleet/replay.py": """
        class OpenLoopReplay:
            def feed(self, chunk):
                self._log = open("replay.log", "a")
        """})
    assert "P001" in rules
    assert "open file handle" in result.violations[0].message


def test_p001_respects_skip_tuple_dictcomp_getstate(tmp_path):
    # The {k: v for k, v in ... if k not in _SKIP} shape: a skipped attr
    # restored by __setstate__ is fine, a skipped-and-forgotten one is not.
    rules, _ = lint_tree(tmp_path, {"fleet/replay.py": """
        _SKIP = ("cursor",)

        class OpenLoopReplay:
            def feed(self, chunk):
                self.cursor = 0

            def __getstate__(self):
                return {k: v for k, v in self.__dict__.items()
                        if k not in _SKIP}

            def __setstate__(self, state):
                self.__dict__.update(state)
                self.cursor = 0
        """})
    assert "P001" not in rules
    rules, _ = lint_tree(tmp_path, {"fleet/replay.py": """
        _SKIP = ("cursor",)

        class OpenLoopReplay:
            def feed(self, chunk):
                self.cursor = 0

            def __getstate__(self):
                return {k: v for k, v in self.__dict__.items()
                        if k not in _SKIP}
        """})
    assert "P001" in rules


# --------------------------------------------------------------------------
# P002 — RegionState views need a __setstate__ rebind

P002_VIEWS = """
    def __init__(self, region, base):
        self.region = region
        self.base = base
        region = self.region
        self.valid_view = region.valid[base:base + 4]
        self.prog_view = region.programmed.reshape(2, 2)
    """

P002_REBIND = """
    def __setstate__(self, state):
        self.__dict__.update(state)
        self._rebind_views()

    def _rebind_views(self):
        region = self.region
        self.valid_view = region.valid[self.base:self.base + 4]
        self.prog_view = region.programmed.reshape(2, 2)
    """


def test_p002_flags_views_without_setstate(tmp_path):
    rules, result = lint_tree(tmp_path, {"nand/block.py": (
        "class Block:\n" + textwrap.indent(textwrap.dedent(P002_VIEWS),
                                           "    "))})
    assert rules.count("P002") == 2  # one per view attribute
    assert "no __setstate__" in result.violations[0].message


def test_p002_quiet_with_rebind_pattern(tmp_path):
    rules, _ = lint_tree(tmp_path, {"nand/block.py": (
        "class Block:\n"
        + textwrap.indent(textwrap.dedent(P002_VIEWS), "    ")
        + textwrap.indent(textwrap.dedent(P002_REBIND), "    "))})
    assert "P002" not in rules


def test_p002_flags_setstate_that_skips_one_view(tmp_path):
    rules, result = lint_tree(tmp_path, {"nand/block.py": """
        class Block:
            def __init__(self, region):
                self.region = region
                self.valid_view = self.region.valid

            def __setstate__(self, state):
                self.__dict__.update(state)
        """})
    assert rules == ["P002"]
    assert "never" in result.violations[0].message


# --------------------------------------------------------------------------
# P003 — unpicklable payloads into the process pool

def test_p003_flags_lambda_into_pool_map(tmp_path):
    rules, result = lint_tree(tmp_path, {"experiments/parallel.py": """
        from concurrent.futures import ProcessPoolExecutor

        def fan_out(xs):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(lambda x: x + 1, xs))
        """})
    assert rules == ["P003"]
    assert "lambda" in result.violations[0].message


def test_p003_flags_closure_into_pool_submit(tmp_path):
    rules, result = lint_tree(tmp_path, {"experiments/parallel.py": """
        from concurrent.futures import ProcessPoolExecutor

        def fan_out(xs):
            def work(x):
                return x + 1
            with ProcessPoolExecutor() as pool:
                return [pool.submit(work, x) for x in xs]
        """})
    assert rules == ["P003"]
    assert "work()" in result.violations[0].message


def test_p003_accepts_module_level_callable(tmp_path):
    # map()'s iterables are consumed parent-side, so a generator
    # argument is fine; only the callable must pickle.
    rules, _ = lint_tree(tmp_path, {"experiments/parallel.py": """
        from concurrent.futures import ProcessPoolExecutor

        def work(x):
            return x + 1

        def fan_out(xs):
            with ProcessPoolExecutor() as pool:
                return list(pool.map(work, (x for x in xs)))
        """})
    assert "P003" not in rules


# --------------------------------------------------------------------------
# CLI plumbing: clean tree, baseline round-trip, SARIF

def test_clean_tree_select_kp_with_empty_baseline(monkeypatch, capsys):
    """Acceptance contract: the committed tree passes ``--select K,P``
    with the committed (empty) baseline — every real finding was fixed
    in-tree or allowlisted with a rationale, never baselined."""
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "--select", "K,P", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules_run"] == ["K001", "K002", "K003",
                                    "P001", "P002", "P003"]
    assert payload["violations"] == []


def seed_k003(tmp_path: Path) -> Path:
    path = tmp_path / "traces" / "model.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent("""
        class TraceProfile:
            name: str
            read_fraction: float

            def to_dict(self) -> dict:
                return {"name": self.name}
        """), encoding="utf-8")
    return path


def test_kp_baseline_round_trip(tmp_path, capsys):
    bad = seed_k003(tmp_path)
    root = str(tmp_path)
    assert main(["lint", "--root", root, "--select", "K,P"]) == 1
    assert main(["lint", "--root", root, "--select", "K,P",
                 "--update-baseline"]) == 0
    entries = json.loads(
        (tmp_path / "LINT_BASELINE.json").read_text())["entries"]
    assert [e["rule"] for e in entries] == ["K003"]
    assert main(["lint", "--root", root, "--select", "K,P"]) == 0
    # Fixing the emitter makes the entry stale; the ratchet must shrink.
    bad.write_text(bad.read_text().replace(
        '{"name": self.name}',
        '{"name": self.name, "read_fraction": self.read_fraction}'),
        encoding="utf-8")
    capsys.readouterr()
    assert main(["lint", "--root", root, "--select", "K,P"]) == 1
    assert "stale" in capsys.readouterr().out


def test_sarif_includes_kp_driver_rules(tmp_path, capsys):
    seed_k003(tmp_path)
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--select", "K,P",
                 "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    (run,) = doc["runs"]
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == ["K001", "K002", "K003", "P001", "P002", "P003"]
    (result,) = run["results"]
    assert result["ruleId"] == "K003"
    assert result["partialFingerprints"]["reproLint/v1"]


# --------------------------------------------------------------------------
# baseline-rot guard (exit 2 on entries that can never match again)

def test_baseline_rot_unknown_rule_exits_2(tmp_path, capsys):
    seed_k003(tmp_path)
    (tmp_path / "LINT_BASELINE.json").write_text(json.dumps({
        "format": 1,
        "entries": [{"rule": "Z999", "path": "traces/model.py",
                     "fingerprint": "deadbeefdeadbeef"}],
    }), encoding="utf-8")
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path)]) == 2
    out = capsys.readouterr().out
    assert "unknown rule 'Z999'" in out and "rotted" in out


def test_baseline_rot_deleted_file_exits_2(tmp_path, capsys):
    seed_k003(tmp_path)
    (tmp_path / "LINT_BASELINE.json").write_text(json.dumps({
        "format": 1,
        "entries": [{"rule": "K003", "path": "traces/deleted.py",
                     "fingerprint": "deadbeefdeadbeef"}],
    }), encoding="utf-8")
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path)]) == 2
    assert "deleted file 'traces/deleted.py'" in capsys.readouterr().out


def test_baseline_rot_guard_accepts_live_entries(tmp_path):
    # A real entry (written by --update-baseline) passes the guard.
    seed_k003(tmp_path)
    root = str(tmp_path)
    assert main(["lint", "--root", root, "--update-baseline"]) == 0
    assert main(["lint", "--root", root]) == 0


# --------------------------------------------------------------------------
# --changed-only (git-diff-aware scoping)

def _git(tmp_path: Path, *argv: str) -> None:
    subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                    *argv], cwd=tmp_path, check=True, capture_output=True)


def test_changed_only_scopes_to_uncommitted_files(tmp_path, capsys):
    # A committed violation is out of scope; a fresh one is reported.
    committed = seed_k003(tmp_path)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--changed-only"]) == 0
    fresh = tmp_path / "traces" / "fresh.py"
    fresh.write_text(committed.read_text().replace(
        "TraceProfile", "FaultConfig"), encoding="utf-8")
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--changed-only",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {v["path"] for v in payload["violations"]} == {"traces/fresh.py"}


def test_changed_only_project_rules_still_see_full_tree(tmp_path, capsys):
    # Only fleet/runner.py is dirty.  The K001 finding it hosts depends
    # on the *unchanged* config/entry files being analyzed, and the
    # K003 finding on the unchanged emitter must be scoped out.
    for relpath, code in {**K001_BAD_CONFIG, **K001_READS}.items():
        path = tmp_path / relpath
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(code), encoding="utf-8")
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")
    runner = tmp_path / "fleet" / "runner.py"
    runner.write_text(runner.read_text() + "\n# touched\n",
                      encoding="utf-8")
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--changed-only",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {v["rule"] for v in payload["violations"]} == {"K001"}
    assert {v["path"] for v in payload["violations"]} == {"fleet/runner.py"}


def test_changed_only_clean_git_tree_exits_fast(tmp_path, capsys):
    seed_k003(tmp_path)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--changed-only"]) == 0
    assert "no changed Python files" in capsys.readouterr().out


def test_changed_only_without_git_falls_back_to_full_run(tmp_path, capsys):
    seed_k003(tmp_path)
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--changed-only"]) == 1
    assert "running the full tree" in capsys.readouterr().out


def test_changed_only_refuses_update_baseline(tmp_path, capsys):
    assert main(["lint", "--root", str(tmp_path), "--changed-only",
                 "--update-baseline"]) == 2


# --------------------------------------------------------------------------
# mutation demos against a copy of the committed tree

def _mutated_tree(tmp_path: Path, relpath: str, old: str, new: str) -> Path:
    pkg = tmp_path / "repro"
    shutil.copytree(REPO_ROOT / "src" / "repro", pkg,
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "*.egg-info"))
    target = pkg / relpath
    text = target.read_text(encoding="utf-8")
    assert old in text, f"mutation anchor missing from {relpath}"
    target.write_text(text.replace(old, new), encoding="utf-8")
    return pkg


def test_mutation_dropping_key_field_trips_k001_and_k003(tmp_path):
    pkg = _mutated_tree(
        tmp_path, "fleet/config.py",
        'return {"profile": self.profile, "weight": self.weight}',
        'return {"profile": self.profile}')
    result = run_lint(pkg, select=["K"])
    rules = {v.rule for v in result.violations}
    assert {"K001", "K003"} <= rules
    k001_paths = {v.path for v in result.violations if v.rule == "K001"}
    # The deepest read is in the fleet runner, reached through
    # simulate_fleet_device -> run_device -> tenant scheduling.
    assert "fleet/runner.py" in k001_paths
    assert all("weight" in v.message for v in result.violations)


def test_mutation_env_read_in_registry_scheme_trips_k002(tmp_path):
    # IPUFTL is reachable from the cached workers only through the
    # SCHEMES[...] registry dispatch, so this trips only while K follows
    # the registry's from-import to its dict literal.
    pkg = _mutated_tree(
        tmp_path, "core/ipu_ftl.py",
        "        lookup = self.subpage_map.lookup\n",
        "        lookup = self.subpage_map.lookup\n"
        "        os.environ.get(\"REPRO_IPU_TUNING\")\n")
    result = run_lint(pkg, select=["K"])
    k002 = [v for v in result.violations if v.rule == "K002"]
    assert k002 and all(v.path == "core/ipu_ftl.py" for v in k002)
    assert any("write()" in v.message and "os.environ" in v.message
               for v in k002)


def test_mutation_removing_rebind_trips_p002(tmp_path):
    pkg = _mutated_tree(
        tmp_path, "nand/block.py",
        "self._rebind_views()", "pass")
    result = run_lint(pkg, select=["P"])
    p002 = [v for v in result.violations if v.rule == "P002"]
    assert p002 and all(v.path == "nand/block.py" for v in p002)
    assert any("_rebind_views" in v.message for v in p002)


def test_committed_tree_unmutated_is_clean(tmp_path):
    pkg = tmp_path / "repro"
    shutil.copytree(REPO_ROOT / "src" / "repro", pkg,
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "*.egg-info"))
    result = run_lint(pkg, select=["K", "P"])
    assert result.violations == []
