"""End-to-end tests of the ``repro-ssd lint`` subcommand: exit codes,
report formats, and the baseline/ratchet workflow."""

from __future__ import annotations

import json
import textwrap
from pathlib import Path

import pytest

from repro.cli import main

REPO_ROOT = Path(__file__).resolve().parents[1]

BAD_SNIPPET = """
    def drain(ids):
        for i in set(ids):
            yield i
    """


def seed_violation(tmp_path: Path, code: str = BAD_SNIPPET) -> Path:
    path = tmp_path / "ftl" / "bad.py"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(textwrap.dedent(code), encoding="utf-8")
    return path


# --------------------------------------------------------------------------
# exit codes and formats


def test_lint_clean_on_committed_tree(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint"]) == 0
    out = capsys.readouterr().out
    assert "0 new, 0 baselined, 0 stale" in out


def test_lint_json_format_on_committed_tree(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert payload["new"] == 0
    assert payload["rules_run"] == ["D001", "D002", "D003", "S002",
                                    "C001", "U001", "U002", "U003",
                                    "M001", "M002", "N001", "N002",
                                    "K001", "K002", "K003",
                                    "P001", "P003"]
    assert payload["files_checked"] > 50


def test_lint_nonzero_on_seeded_violation(tmp_path, capsys):
    seed_violation(tmp_path)
    assert main(["lint", "--root", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert "D003" in out and "ftl/bad.py" in out


def test_lint_json_reports_seeded_violation(tmp_path, capsys):
    seed_violation(tmp_path)
    assert main(["lint", "--root", str(tmp_path), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is False
    (violation,) = payload["violations"]
    assert violation["rule"] == "D003"
    assert violation["path"] == "ftl/bad.py"
    assert violation["fingerprint"]


@pytest.mark.parametrize("rule", ["D001", "D002", "D003", "S002",
                                  "C001", "U001", "U002", "U003",
                                  "M001", "M002", "N001", "N002",
                                  "K001", "K002", "K003",
                                  "P001", "P003"])
def test_every_rule_listed(rule, capsys):
    assert main(["lint", "--list-rules"]) == 0
    assert rule in capsys.readouterr().out


def test_select_unknown_rule_exits_2(tmp_path, capsys):
    assert main(["lint", "--root", str(tmp_path), "--select", "Z999"]) == 2


# --------------------------------------------------------------------------
# baseline / ratchet workflow


def test_baseline_workflow_ratchets(tmp_path, capsys):
    bad = seed_violation(tmp_path)
    root = str(tmp_path)

    # 1. New violation fails.
    assert main(["lint", "--root", root]) == 1
    # 2. Grandfather it; the run goes green with it recorded.
    assert main(["lint", "--root", root, "--update-baseline"]) == 0
    baseline = tmp_path / "LINT_BASELINE.json"
    assert baseline.is_file()
    assert len(json.loads(baseline.read_text())["entries"]) == 1
    capsys.readouterr()
    assert main(["lint", "--root", root]) == 0
    assert "[baselined]" in capsys.readouterr().out
    # 3. Fixing the code makes the entry stale — the ratchet fails until
    #    the baseline shrinks.
    bad.write_text("def drain(ids):\n    return sorted(set(ids))\n",
                   encoding="utf-8")
    capsys.readouterr()
    assert main(["lint", "--root", root]) == 1
    assert "stale" in capsys.readouterr().out
    assert main(["lint", "--root", root, "--update-baseline"]) == 0
    assert json.loads(baseline.read_text())["entries"] == []
    assert main(["lint", "--root", root]) == 0


def test_baseline_survives_line_drift(tmp_path):
    bad = seed_violation(tmp_path)
    root = str(tmp_path)
    assert main(["lint", "--root", root, "--update-baseline"]) == 0
    # Unrelated edits above the violation shift its line number; the
    # text-keyed fingerprint keeps the entry matched.
    bad.write_text("# leading comment\n# another\n" + bad.read_text(),
                   encoding="utf-8")
    assert main(["lint", "--root", root]) == 0


def test_explicit_baseline_path(tmp_path):
    seed_violation(tmp_path)
    baseline = tmp_path / "custom-baseline.json"
    root = str(tmp_path)
    assert main(["lint", "--root", root, "--baseline", str(baseline),
                 "--update-baseline"]) == 0
    assert baseline.is_file()
    assert main(["lint", "--root", root, "--baseline", str(baseline)]) == 0
    # The default baseline name was never created.
    assert not (tmp_path / "LINT_BASELINE.json").exists()


def test_committed_baseline_is_empty():
    """Satellite contract: the repo baseline stays (near-)empty; every
    entry that does exist must carry a documenting note."""
    data = json.loads((REPO_ROOT / "LINT_BASELINE.json").read_text())
    assert data["format"] == 1
    for entry in data["entries"]:
        assert entry.get("note"), f"undocumented baseline entry: {entry}"
    assert len(data["entries"]) == 0


# --------------------------------------------------------------------------
# baseline / ratchet workflow with U-rules (interprocedural findings)

U_BAD_SNIPPET = """
    def cost(delay_ms, size_bytes):
        return delay_ms + size_bytes
    """


def test_u_rule_baseline_round_trip(tmp_path, capsys):
    bad = seed_violation(tmp_path, U_BAD_SNIPPET)
    root = str(tmp_path)

    capsys.readouterr()
    assert main(["lint", "--root", root]) == 1
    assert "U001" in capsys.readouterr().out
    # Grandfather the interprocedural finding, then go green.
    assert main(["lint", "--root", root, "--update-baseline"]) == 0
    baseline = tmp_path / "LINT_BASELINE.json"
    entries = json.loads(baseline.read_text())["entries"]
    assert [e["rule"] for e in entries] == ["U001"]
    assert main(["lint", "--root", root]) == 0


def test_u_rule_fingerprint_survives_line_drift(tmp_path):
    bad = seed_violation(tmp_path, U_BAD_SNIPPET)
    root = str(tmp_path)
    assert main(["lint", "--root", root, "--update-baseline"]) == 0
    # Project-rule findings use the same text-keyed fingerprints as
    # per-file ones: unrelated edits above must not orphan the entry.
    bad.write_text("# leading comment\n# another\n" + bad.read_text(),
                   encoding="utf-8")
    assert main(["lint", "--root", root]) == 0


def test_u_rule_stale_entry_fails_ratchet(tmp_path, capsys):
    bad = seed_violation(tmp_path, U_BAD_SNIPPET)
    root = str(tmp_path)
    assert main(["lint", "--root", root, "--update-baseline"]) == 0
    # Fix the unit mix: the baselined entry goes stale and the ratchet
    # demands the baseline shrink.
    bad.write_text("def cost(delay_ms, other_ms):\n"
                   "    return delay_ms + other_ms\n", encoding="utf-8")
    capsys.readouterr()
    assert main(["lint", "--root", root]) == 1
    assert "stale" in capsys.readouterr().out
    assert main(["lint", "--root", root, "--update-baseline"]) == 0
    assert json.loads(
        (tmp_path / "LINT_BASELINE.json").read_text())["entries"] == []


def test_cli_select_family_prefix(tmp_path, capsys):
    seed_violation(tmp_path, U_BAD_SNIPPET)
    root = str(tmp_path)
    capsys.readouterr()
    assert main(["lint", "--root", root, "--select", "U",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules_run"] == ["U001", "U002", "U003"]
    # The D-family alone does not see the unit mix.
    assert main(["lint", "--root", root, "--select", "D"]) == 0


def test_cli_select_unknown_prefix_exits_2(tmp_path, capsys):
    seed_violation(tmp_path, U_BAD_SNIPPET)
    assert main(["lint", "--root", str(tmp_path), "--select", "Q"]) == 2
    assert "unknown rule" in capsys.readouterr().out


# --------------------------------------------------------------------------
# M/N families: clean-tree contract and --select plumbing

M_BAD_SNIPPET = """
    class Block:
        def program(self, page):
            self.next_page += 1
            if page < 0:
                raise ValueError("bad page")
            self.pass_counts[page] += 1
    """


def test_clean_tree_with_mn_families_and_empty_baseline(monkeypatch, capsys):
    """Acceptance contract: ``--select M,N`` exits 0 on the committed
    tree with the (empty) committed baseline — every real finding was
    fixed or carries an in-code suppression, never a baseline entry."""
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "--select", "M,N", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules_run"] == ["M001", "M002", "N001", "N002"]
    assert payload["violations"] == []


def test_cli_select_m_family_prefix(tmp_path, capsys):
    path = tmp_path / "nand" / "bad.py"
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent(M_BAD_SNIPPET), encoding="utf-8")
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--select", "M",
                 "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["rules_run"] == ["M001", "M002"]
    assert any(v["rule"] == "M001" for v in payload["violations"])
    # The N-family alone does not see the torn write.
    assert main(["lint", "--root", str(tmp_path), "--select", "N"]) == 0


# --------------------------------------------------------------------------
# SARIF output


def _sarif_run(doc: dict) -> dict:
    assert doc["version"] == "2.1.0"
    assert doc["$schema"].endswith("sarif-2.1.0.json")
    (run,) = doc["runs"]
    return run


def test_sarif_clean_tree_schema(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "--format", "sarif"]) == 0
    run = _sarif_run(json.loads(capsys.readouterr().out))
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-ssd-lint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert rule_ids == ["D001", "D002", "D003", "S002", "C001",
                        "U001", "U002", "U003", "M001", "M002", "N001",
                        "N002", "K001", "K002", "K003", "P001",
                        "P003"]
    assert all(r["shortDescription"]["text"] for r in driver["rules"])
    assert run["results"] == []


def test_sarif_round_trips_seeded_violation(tmp_path, capsys):
    seed_violation(tmp_path)
    root = str(tmp_path)
    capsys.readouterr()
    assert main(["lint", "--root", root, "--format", "sarif"]) == 1
    run = _sarif_run(json.loads(capsys.readouterr().out))
    (result,) = run["results"]
    assert result["ruleId"] == "D003"
    assert result["level"] == "error"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "ftl/bad.py"
    assert loc["region"]["startLine"] >= 1
    assert loc["region"]["startColumn"] >= 1  # SARIF columns are 1-based
    assert result["partialFingerprints"]["reproLint/v1"]
    # The SARIF location agrees with the JSON reporter's 0-based column.
    capsys.readouterr()
    assert main(["lint", "--root", root, "--format", "json"]) == 1
    (violation,) = json.loads(capsys.readouterr().out)["violations"]
    assert loc["region"]["startLine"] == violation["line"]
    assert loc["region"]["startColumn"] == violation["col"] + 1
    assert (result["partialFingerprints"]["reproLint/v1"]
            == violation["fingerprint"])


def test_sarif_rebases_uris_on_repo_root(tmp_path, capsys):
    """With a repo-shaped ``--root`` (``src/repro`` layout) violation
    paths are package-root relative; SARIF annotations must target
    ``src/repro/...`` so code scanning lands them on the right files."""
    (tmp_path / "pyproject.toml").write_text("[project]\n", encoding="utf-8")
    bad = tmp_path / "src" / "repro" / "ftl" / "bad.py"
    bad.parent.mkdir(parents=True)
    bad.write_text(textwrap.dedent(BAD_SNIPPET), encoding="utf-8")
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--format", "sarif"]) == 1
    run = _sarif_run(json.loads(capsys.readouterr().out))
    (result,) = run["results"]
    uri = result["locations"][0]["physicalLocation"]["artifactLocation"]["uri"]
    assert uri == "src/repro/ftl/bad.py"


def test_sarif_baselined_findings_are_notes(tmp_path, capsys):
    seed_violation(tmp_path)
    root = str(tmp_path)
    assert main(["lint", "--root", root, "--update-baseline"]) == 0
    capsys.readouterr()
    assert main(["lint", "--root", root, "--format", "sarif"]) == 0
    run = _sarif_run(json.loads(capsys.readouterr().out))
    (result,) = run["results"]
    assert result["level"] == "note"


def test_sarif_output_flag_writes_file(tmp_path, capsys):
    seed_violation(tmp_path)
    out_path = tmp_path / "lint.sarif"
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--format", "sarif",
                 "--output", str(out_path)]) == 1
    summary = capsys.readouterr().out
    assert "wrote sarif report" in summary and "1 new" in summary
    run = _sarif_run(json.loads(out_path.read_text(encoding="utf-8")))
    assert [r["ruleId"] for r in run["results"]] == ["D003"]
