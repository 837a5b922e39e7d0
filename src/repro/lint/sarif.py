"""SARIF 2.1.0 export for lint findings.

SARIF (Static Analysis Results Interchange Format) is the lingua franca
of code-scanning UIs; emitting it lets CI upload ``zcover lint`` output
as a scanning artifact that renders inline on diffs.  The document is
canonicalised (sorted keys, fixed separators, trailing newline) through
the same serializer as every other committed artefact, so every run
over the same tree produces byte-identical SARIF.

Only the stable core of the format is emitted: one run, one driver, one
rule table aggregated from the analyzers, one result per finding with a
physical location.  Columns are converted from the linters' 0-based
offsets to SARIF's 1-based convention.
"""

from __future__ import annotations

from typing import List, Optional

from ..obs.export import canonical_dumps
from .base import Analyzer
from .findings import LintFinding, Severity

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

TOOL_NAME = "zcover-lint"

_LEVELS = {
    Severity.ERROR: "error",
    Severity.WARNING: "warning",
}


def _rule_table(analyzers: List[Analyzer]) -> List[dict]:
    rules = {}
    for analyzer in analyzers:
        for rule_id, description in analyzer.rules.items():
            rules[rule_id] = {
                "id": rule_id,
                "shortDescription": {"text": description},
                "properties": {"family": analyzer.name},
            }
    return [rules[rule_id] for rule_id in sorted(rules)]


def _result(finding: LintFinding) -> dict:
    message = finding.message
    if finding.hint:
        message = f"{message} ({finding.hint})"
    return {
        "ruleId": finding.rule,
        "level": _LEVELS.get(finding.severity, "note"),
        "message": {"text": message},
        "locations": [
            {
                "physicalLocation": {
                    "artifactLocation": {
                        "uri": finding.path,
                        "uriBaseId": "SRCROOT",
                    },
                    "region": {
                        "startLine": finding.line,
                        "startColumn": finding.col + 1,
                    },
                }
            }
        ],
    }


def findings_to_sarif(
    findings: List[LintFinding],
    analyzers: Optional[List[Analyzer]] = None,
) -> dict:
    """Build the SARIF 2.1.0 log object for one lint run."""
    driver = {
        "name": TOOL_NAME,
        "informationUri": "https://github.com/zcover/repro",
        "rules": _rule_table(analyzers or []),
    }
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {"driver": driver},
                "columnKind": "utf16CodeUnits",
                "results": [_result(f) for f in findings],
            }
        ],
    }


def render_sarif(
    findings: List[LintFinding],
    analyzers: Optional[List[Analyzer]] = None,
) -> str:
    """Canonical SARIF text (byte-stable across runs and worker counts)."""
    return canonical_dumps(findings_to_sarif(findings, analyzers))
