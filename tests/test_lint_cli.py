"""End-to-end tests of the ``repro-ssd lint`` subcommand: exit codes,
report formats, and finding fingerprints."""

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
    assert out.rstrip().endswith(": 0 findings")


def test_lint_json_format_on_committed_tree(monkeypatch, capsys):
    monkeypatch.chdir(REPO_ROOT)
    assert main(["lint", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["ok"] is True
    assert (payload["new"], payload["stale"]) == (0, 0)
    assert payload["rules_run"] == ["D001", "D002", "D003", "S002",
                                    "C001", "U001", "U002", "U003",
                                    "M001", "M002", "N001", "N002",
                                    "K002", "P003"]
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
                                  "K002", "P003"])
def test_every_rule_listed(rule, capsys):
    assert main(["lint", "--list-rules"]) == 0
    assert rule in capsys.readouterr().out


def test_select_unknown_rule_exits_2(tmp_path, capsys):
    assert main(["lint", "--root", str(tmp_path), "--select", "Z999"]) == 2


# --------------------------------------------------------------------------
# U-rules (interprocedural findings) through the CLI

U_BAD_SNIPPET = """
    def cost(delay_ms, size_bytes):
        return delay_ms + size_bytes
    """


def _json_violations(root: str, capsys) -> list:
    capsys.readouterr()
    assert main(["lint", "--root", root, "--format", "json"]) == 1
    return json.loads(capsys.readouterr().out)["violations"]


def test_u_rule_fingerprint_survives_line_drift(tmp_path, capsys):
    bad = seed_violation(tmp_path, U_BAD_SNIPPET)
    root = str(tmp_path)
    (before,) = _json_violations(root, capsys)
    assert before["rule"] == "U001"
    # Project-rule findings use the same text-keyed fingerprints as
    # per-file ones: unrelated edits above move the line, not the id.
    bad.write_text("# leading comment\n# another\n" + bad.read_text(),
                   encoding="utf-8")
    (after,) = _json_violations(root, capsys)
    assert after["line"] == before["line"] + 2
    assert after["fingerprint"] == before["fingerprint"]


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


def test_clean_tree_with_mn_families(monkeypatch, capsys):
    """Acceptance contract: ``--select M,N`` exits 0 on the committed
    tree — every real finding was fixed or carries an in-code
    suppression."""
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
                        "N002", "K002", "P003"]
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


def test_sarif_output_flag_writes_file(tmp_path, capsys):
    seed_violation(tmp_path)
    out_path = tmp_path / "lint.sarif"
    capsys.readouterr()
    assert main(["lint", "--root", str(tmp_path), "--format", "sarif",
                 "--output", str(out_path)]) == 1
    summary = capsys.readouterr().out
    assert "wrote sarif report" in summary and "(1 findings)" in summary
    run = _sarif_run(json.loads(out_path.read_text(encoding="utf-8")))
    assert [r["ruleId"] for r in run["results"]] == ["D003"]
