"""Fixture- and mutation-driven tests for the K (cache-key soundness)
and P (process-pool payload) lint families.

Three layers of coverage:

* good/bad fixture pairs per rule, linted with the real engine — the
  K002 cases follow the cached entry point's call tree across edges;
* CLI plumbing the families share with everyone else: SARIF driver
  rules and ``--changed-only`` scoping;
* mutation demos against a copy of the committed tree: K002 through
  the scheme registry, and the U002, U003 and M001 demos.
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
    # The same read inside cli.py (argument plumbing) is accepted.
    rules, _ = lint_tree(tmp_path, {"cli.py": K002_BODY})
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
# CLI plumbing: clean tree, SARIF

def test_clean_tree_select_kp(monkeypatch, capsys):
    """Acceptance contract: the committed tree passes ``--select K,P`` —
    every real finding was fixed in-tree or allowlisted with a
    rationale."""
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "--select", "K,P", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules_run"] == ["K002", "P003"]
    assert payload["violations"] == []


def seed_k002(tmp_path: Path, relpath: str = "experiments/workers.py",
              ) -> Path:
    path = tmp_path / relpath
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(K002_BODY), encoding="utf-8")
    return path


def test_sarif_includes_kp_driver_rules(tmp_path, capsys):
    seed_k002(tmp_path)
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--select", "K,P",
                 "--format", "sarif"]) == 1
    doc = json.loads(capsys.readouterr().out)
    (run,) = doc["runs"]
    rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
    assert rule_ids == ["K002", "P003"]
    (result,) = run["results"]
    assert result["ruleId"] == "K002"
    assert result["partialFingerprints"]["reproLint/v1"]


# --------------------------------------------------------------------------
# --changed-only (git-diff-aware scoping)

def _git(tmp_path: Path, *argv: str) -> None:
    subprocess.run(["git", "-c", "user.email=t@t", "-c", "user.name=t",
                    *argv], cwd=tmp_path, check=True, capture_output=True)


def test_changed_only_scopes_to_uncommitted_files(tmp_path, capsys):
    # A committed violation is out of scope; a fresh one is reported.
    seed_k002(tmp_path)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--changed-only"]) == 0
    seed_k002(tmp_path, "experiments/fresh.py")
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--changed-only",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert {v["path"] for v in payload["violations"]} == {
        "experiments/fresh.py"}


def test_changed_only_project_rules_still_see_full_tree(tmp_path, capsys):
    # Only fleet/runner.py is dirty.  The K002 finding it hosts is
    # reachable only from the *unchanged* entry file, and the entry
    # file's own finding must be scoped out.
    files = {
        "experiments/workers.py": """
            import os

            from fleet.runner import run_device

            def simulate_fleet_device(cfg):
                os.environ.get("REPRO_TRACE")
                return run_device(cfg)
            """,
        "fleet/runner.py": """
            import platform

            def run_device(cfg):
                return platform.node()
            """,
    }
    for relpath, code in files.items():
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
    assert {v["rule"] for v in payload["violations"]} == {"K002"}
    assert {v["path"] for v in payload["violations"]} == {"fleet/runner.py"}


def test_changed_only_clean_git_tree_exits_fast(tmp_path, capsys):
    seed_k002(tmp_path)
    _git(tmp_path, "init", "-q")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-qm", "seed")
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--changed-only"]) == 0
    assert "no changed Python files" in capsys.readouterr().out


def test_changed_only_without_git_falls_back_to_full_run(tmp_path, capsys):
    seed_k002(tmp_path)
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--changed-only"]) == 1
    assert "running the full tree" in capsys.readouterr().out


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


def test_mutation_lpn_passed_as_lsn_trips_u002(tmp_path):
    # ``self.subpage_map`` is bound in the base class BaseFTL, so the
    # callee's ``lsn: Lsn`` parameter is reached only through an
    # inherited attribute type.
    pkg = _mutated_tree(
        tmp_path, "ftl/baseline.py",
        "ppa = self.subpage_map.lookup(lsn)",
        "ppa = self.subpage_map.lookup(lpn)")
    result = run_lint(pkg, select=["U"])
    (u002,) = result.violations
    assert (u002.rule, u002.path) == ("U002", "ftl/baseline.py")
    assert u002.message == ("lpn value passed to parameter 'lsn' of "
                            "lookup() which expects lsn")


def test_mutation_double_scaled_stripe_trips_u003(tmp_path):
    # ``--stripe-kib`` is already scaled to bytes once; scaling the
    # product again is the double conversion U003 exists for
    # (tests/test_cli.py pins the built config's stripe_bytes too).
    pkg = _mutated_tree(
        tmp_path, "cli.py",
        "stripe_bytes=args.stripe_kib * KIB,",
        "stripe_bytes=args.stripe_kib * KIB * KIB,")
    result = run_lint(pkg, select=["U"])
    (u003,) = result.violations
    assert (u003.rule, u003.path) == ("U003", "cli.py")
    assert "double scaling" in u003.message


def test_mutation_ms_plus_subpage_size_trips_u001(tmp_path):
    # ``GeometryConfig.subpage_size`` is annotated ``Bytes``, so adding
    # it to the ms pacing estimate mixes units (the smoke goldens catch
    # the same mutation through the results it shifts).
    anchor = ("    per_req = prof.write_ratio * chip_ms_write"
              " + (1 - prof.write_ratio) * chip_ms_read\n")
    pkg = _mutated_tree(
        tmp_path, "experiments/runner.py", anchor,
        anchor + "    per_req = per_req + config.geometry.subpage_size\n")
    text = (pkg / "experiments" / "runner.py").read_text(encoding="utf-8")
    line = text[:text.index(anchor)].count("\n") + 2
    result = run_lint(pkg, select=["U"])
    (u001,) = result.violations
    assert (u001.rule, u001.path, u001.line) == (
        "U001", "experiments/runner.py", line)
    assert "ms + bytes" in u001.message


def test_mutation_write_before_ecc_validation_trips_m001(tmp_path):
    # The pure validator is reached through ``self.ecc``, an attribute
    # whose class the index infers.
    anchor = "        self.stats.host_read_requests += 1\n"
    pkg = _mutated_tree(
        tmp_path, "ftl/base.py", anchor,
        "        self.last_read_ms = now\n" + anchor)
    result = run_lint(pkg, select=["M"])
    (m001,) = result.violations
    assert (m001.rule, m001.path) == ("M001", "ftl/base.py")
    assert "'last_read_ms'" in m001.message
    assert "uncorrectable_probability_for_subpages()" in m001.message
    assert "handle_read()" in m001.message


def test_committed_tree_unmutated_is_clean(tmp_path):
    pkg = tmp_path / "repro"
    shutil.copytree(REPO_ROOT / "src" / "repro", pkg,
                    ignore=shutil.ignore_patterns("__pycache__",
                                                  "*.egg-info"))
    result = run_lint(pkg, select=["U", "M", "K", "P"])
    assert result.violations == []
