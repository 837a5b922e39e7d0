"""Orchestration: collect sources, run every analyzer, report.

``run_lint()`` is the single entry point used by both ``zcover lint``
and the test suite.  The default root is the installed ``repro`` package
itself, so the gate always inspects the code that is actually running.
The flow engine (:mod:`repro.lint.flow`) joins the three syntactic
families, and its purity manifest rides on the report for the CLI's
``--write-manifest``/``--check-manifest``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import List, Optional

from .base import Analyzer, apply_suppressions, collect_sources
from .findings import (
    LintFinding,
    Severity,
    findings_to_document,
    render_findings,
)


def default_analyzers(registry=None) -> List[Analyzer]:
    """The four rule families, in reporting order."""
    from .conformance import ConformanceAnalyzer
    from .determinism import DeterminismAnalyzer
    from .flow import FlowAnalyzer
    from .wiresafety import WireSafetyAnalyzer

    return [
        DeterminismAnalyzer(),
        ConformanceAnalyzer(registry=registry),
        WireSafetyAnalyzer(),
        FlowAnalyzer(),
    ]


@dataclass
class LintReport:
    """Outcome of one lint run over one source root."""

    root: Path
    findings: List[LintFinding] = field(default_factory=list)
    #: Purity manifest from the flow analyzer (None when none ran).
    manifest: Optional[dict] = None
    #: The analyzers that ran (rule tables feed the SARIF driver).
    analyzers: List[Analyzer] = field(default_factory=list)

    @property
    def errors(self) -> int:
        return sum(1 for f in self.findings if f.severity is Severity.ERROR)

    @property
    def exit_code(self) -> int:
        """Non-zero iff any ERROR-severity finding survived suppression."""
        return 1 if self.errors else 0

    def strict_exit_code(self) -> int:
        """Non-zero if *anything* survived suppression, warnings included."""
        return 1 if self.findings else 0

    def to_document(self) -> dict:
        return findings_to_document(self.findings)

    def render(self) -> str:
        return render_findings(self.findings)

    def render_sarif(self) -> str:
        from .sarif import render_sarif

        return render_sarif(self.findings, self.analyzers)


def run_lint(
    root: Optional[Path] = None,
    analyzers: Optional[List[Analyzer]] = None,
    registry=None,
) -> LintReport:
    """Lint every ``*.py`` under *root* (default: the ``repro`` package)."""
    if root is None:
        root = Path(__file__).resolve().parents[1]
    root = Path(root)
    sources = collect_sources(root)
    if analyzers is None:
        analyzers = default_analyzers(registry=registry)
    findings: List[LintFinding] = []
    manifest: Optional[dict] = None
    for analyzer in analyzers:
        findings.extend(analyzer.analyze(sources))
        if getattr(analyzer, "manifest", None) is not None:
            manifest = analyzer.manifest
    findings = apply_suppressions(findings, sources)
    findings.sort(key=lambda f: f.sort_key)
    return LintReport(
        root=root, findings=findings, manifest=manifest, analyzers=list(analyzers)
    )
