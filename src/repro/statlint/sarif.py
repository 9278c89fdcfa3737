"""SARIF 2.1.0 renderer for statlint results.

SARIF is the interchange format CI code-scanning UIs ingest (GitHub
surfaces it as inline PR annotations). One run object carries the full
rule catalog — id, short/full description, level (always ``error``:
every rule guards a hard contract) — and one result per finding:

* suppressed findings are included with an ``inSource`` suppression
  record (so the UI shows them struck through, and totals reconcile
  with the human report instead of silently shrinking);
* when a baseline was applied, each result carries ``baselineState``
  (``new`` vs ``unchanged``), which is exactly the axis the exit-code
  contract ratchets on.
"""

from __future__ import annotations

import json
from typing import Dict, List

from .engine import SYNTAX
from .findings import Finding, LintResult
from .registry import RULES

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = ("https://raw.githubusercontent.com/oasis-tcs/"
                "sarif-spec/master/Schemata/sarif-schema-2.1.0.json")

#: SARIF ``level`` of every rule and every result.
LEVEL = "error"


def _rule_catalog(result: LintResult) -> List[dict]:
    """Rules array: every registered rule, plus SYNTAX if it fired."""
    catalog = []
    for rule_id in sorted(RULES):
        cls = RULES[rule_id]
        catalog.append({
            "id": rule_id,
            "shortDescription": {"text": cls.title},
            "fullDescription": {"text": cls.rationale},
            "defaultConfiguration": {"level": LEVEL},
        })
    if any(f.rule == SYNTAX for f in result.findings):
        catalog.append({
            "id": SYNTAX,
            "shortDescription": {"text": "file does not parse"},
            "defaultConfiguration": {"level": LEVEL},
        })
    return catalog


def _result(finding: Finding, rule_index: Dict[str, int],
            baseline_used: bool) -> dict:
    out = {
        "ruleId": finding.rule,
        "ruleIndex": rule_index[finding.rule],
        "level": LEVEL,
        "message": {"text": finding.message},
        "locations": [{
            "physicalLocation": {
                "artifactLocation": {
                    "uri": finding.path,
                    "uriBaseId": "SRCROOT",
                },
                "region": {
                    "startLine": max(finding.line, 1),
                    "startColumn": finding.col + 1,
                },
            },
        }],
        "suppressions": ([{"kind": "inSource"}]
                         if finding.suppressed else []),
    }
    if baseline_used and not finding.suppressed:
        out["baselineState"] = ("unchanged" if finding.baselined
                                else "new")
    return out


def render_sarif(result: LintResult, *,
                 baseline_used: bool = False) -> str:
    catalog = _rule_catalog(result)
    rule_index = {entry["id"]: i for i, entry in enumerate(catalog)}
    run = {
        "tool": {
            "driver": {
                "name": "statlint",
                "informationUri":
                    "https://example.invalid/repro/statlint",
                "rules": catalog,
            },
        },
        "originalUriBaseIds": {"SRCROOT": {"uri": "file:///./"}},
        "results": [_result(f, rule_index, baseline_used)
                    for f in result.findings],
    }
    return json.dumps({
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [run],
    }, indent=2, sort_keys=True)
