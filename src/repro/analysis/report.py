"""Text, JSON and SARIF reporters for ``repro-ssd lint``."""

from __future__ import annotations

import json

from .core import LintResult, Violation

#: SARIF 2.1.0 — the format GitHub code scanning ingests.
SARIF_SCHEMA = "https://json.schemastore.org/sarif-2.1.0.json"
SARIF_VERSION = "2.1.0"


def render_text(result: LintResult) -> str:
    """Human-readable report: one ``path:line:col: RULE message`` per
    finding, then a summary line."""
    out = [f"{v.location()}: {v.rule} {v.message}" for v in result.violations]
    counts = result.counts_by_rule()
    by_rule = ", ".join(f"{r}={n}" for r, n in sorted(counts.items()))
    out.append(f"checked {result.files_checked} files, rules "
               f"{','.join(result.rules_run)}: "
               f"{len(result.violations)} findings"
               + (f" ({by_rule})" if by_rule else ""))
    return "\n".join(out)


def _violation_dict(v: Violation) -> dict:
    return {"rule": v.rule, "path": v.path, "line": v.line, "col": v.col,
            "message": v.message, "fingerprint": v.fingerprint}


def render_json(result: LintResult) -> str:
    """Machine-readable report (the CI lint job's format).

    ``new`` counts the findings and ``stale`` is always 0: both keys
    outlive the retired baseline file because existing readers (the
    ``perf/`` lint workload) check them.
    """
    payload = {
        "files_checked": result.files_checked,
        "rules_run": result.rules_run,
        "counts_by_rule": result.counts_by_rule(),
        "violations": [_violation_dict(v) for v in result.violations],
        "new": len(result.violations),
        "stale": 0,
        "ok": not result.violations,
    }
    return json.dumps(payload, indent=2, sort_keys=True)


def _sarif_result(v: Violation, rule_index: dict[str, int],
                  uri_prefix: str) -> dict:
    result: dict = {
        "ruleId": v.rule,
        "level": "error",
        "message": {"text": v.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": f"{uri_prefix}{v.path}",
                    "uriBaseId": "%SRCROOT%",
                },
                "region": {
                    "startLine": max(v.line, 1),
                    "startColumn": v.col + 1,  # SARIF columns are 1-based
                },
            },
        }],
        "partialFingerprints": {"reproLint/v1": v.fingerprint},
    }
    idx = rule_index.get(v.rule)
    if idx is not None:
        result["ruleIndex"] = idx
    return result


def render_sarif(result: LintResult, uri_prefix: str = "") -> str:
    """SARIF 2.1.0 report, for GitHub code-scanning upload.

    ``uri_prefix`` rebases violation paths (relative to the linted
    package root) onto the repository root — ``"src/repro/"`` in the
    normal invocation — so annotations land on the right files.
    """
    from . import RULES_BY_ID  # late import: rules import this package

    rule_index = {rid: i for i, rid in enumerate(result.rules_run)}
    rules = []
    for rid in result.rules_run:
        rule = RULES_BY_ID.get(rid)
        descriptor: dict = {"id": rid}
        if rule is not None and rule.title:
            descriptor["shortDescription"] = {"text": rule.title}
        rules.append(descriptor)
    payload = {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [{
            "tool": {
                "driver": {
                    "name": "repro-ssd-lint",
                    "rules": rules,
                },
            },
            "columnKind": "utf16CodeUnits",
            "results": [_sarif_result(v, rule_index, uri_prefix)
                        for v in result.violations],
        }],
    }
    return json.dumps(payload, indent=2, sort_keys=True)
