"""Interprocedural determinism dataflow engine (the D2xx/W401 family).

The syntactic families (D1xx, C2xx, W3xx) judge one AST node at a time;
this package judges *reachability*: whether a campaign entry point can
transitively reach global entropy, an unseeded generator, or the wall
clock, and whether statically-typed values entering the wire codec stay
inside the W3xx vocabulary: the classes the ``@layout`` declarations
reach (:func:`~repro.lint.wiresafety.wire_vocabulary`), so W3xx proves
the vocabulary's fields and W401 what enters the codec.  The pipeline is

    summarize (per file)
      -> link (:class:`~repro.lint.flow.callgraph.CallGraph`)
      -> fixpoint (:mod:`repro.lint.flow.taint`)
      -> findings + purity manifest (:mod:`repro.lint.flow.purity`)

Findings derive only from JSON-clean summaries, so every run over the
same text is byte-identical by construction.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..base import Analyzer, SourceFile
from ..determinism import DEFAULT_ENTROPY_OWNERS
from ..findings import LintFinding
from ..wiresafety import wire_vocabulary
from . import purity, taint
from .callgraph import CallGraph
from .symbols import summarize_source

__all__ = [
    "CallGraph",
    "FlowAnalyzer",
    "DEFAULT_ENTRY_MODULES",
    "summarize_source",
]

#: Modules whose public surface constitutes the campaign entry points the
#: purity manifest gates.  ``obs/tracing.py`` is deliberately absent: the
#: span profiler is a sanctioned wall-clock reader, not a campaign API.
DEFAULT_ENTRY_MODULES: Tuple[str, ...] = (
    "core/campaign.py",
    "core/trials.py",
    "core/parallel.py",
    "core/scheduler.py",
    "core/session.py",
    "faults/plan.py",
    "faults/schedule.py",
    "faults/injector.py",
    "faults/worker.py",
    "faults/report.py",
    "obs/metrics.py",
    "obs/export.py",
)


class FlowAnalyzer(Analyzer):
    """Interprocedural entropy/clock/wire-type flow analysis."""

    name = "determinism-flow"
    rules = {
        "D201": "global entropy reachable from a campaign entry point",
        "D202": "rng parameter whose unseeded default is exercised by a caller",
        "D203": "seeded generator escapes into an unordered container",
        "D204": "wall-clock read reachable from a campaign entry point",
        "W401": "statically-typed value outside the wire vocabulary enters a codec",
    }

    def __init__(self):
        #: Populated by :meth:`analyze`: the manifest of the last run.
        self.manifest: Optional[dict] = None

    def analyze(self, sources: List[SourceFile]) -> List[LintFinding]:
        """Run the full summarize/link/fixpoint pipeline over *sources*."""
        graph = CallGraph({s.rel: summarize_source(s) for s in sources})
        entropy = taint.propagate(
            graph, taint.entropy_seeds(graph, DEFAULT_ENTROPY_OWNERS)
        )
        clock = taint.propagate(
            graph, taint.clock_seeds(graph, taint.DEFAULT_CLOCK_EXEMPT)
        )
        entries = taint.discover_entry_points(graph, DEFAULT_ENTRY_MODULES)
        reachable = taint.forward_reachable(graph, entries)

        findings: List[LintFinding] = []
        findings.extend(taint.entry_point_findings(graph, entries, entropy, clock))
        findings.extend(taint.rng_default_findings(graph, reachable))
        findings.extend(taint.escape_findings(graph))
        findings.extend(taint.wire_type_findings(graph, frozenset(wire_vocabulary(sources))))

        verdicts = purity.entry_verdicts(graph, entries, entropy, clock)
        self.manifest = purity.manifest_document(graph, verdicts)
        return findings
