"""Interprocedural determinism dataflow engine (the D2xx/W401 family).

The syntactic families (D1xx, C2xx, W3xx) judge one AST node at a time;
this package judges *reachability*: whether a campaign entry point can
transitively reach global entropy, an unseeded generator, or the wall
clock, and whether statically-typed values entering the wire codecs stay
inside the W3xx vocabulary.  The pipeline is

    summarize (per file, cacheable, shardable)
      -> link (:class:`~repro.lint.flow.callgraph.CallGraph`)
      -> fixpoint (:mod:`repro.lint.flow.taint`)
      -> findings + purity manifest (:mod:`repro.lint.flow.purity`)

Findings derive only from JSON-clean summaries, so a serial run, a
``--jobs N`` run and a cache-warm run are byte-identical by construction.
"""

from __future__ import annotations

from pathlib import Path
from typing import FrozenSet, List, Optional, Tuple

from ..base import Analyzer, SourceFile
from ..findings import LintFinding
from . import purity, taint
from .cache import SummaryCache
from .callgraph import CallGraph
from .symbols import SUMMARY_VERSION, summarize_source, summarize_text

__all__ = [
    "CallGraph",
    "FlowAnalyzer",
    "SummaryCache",
    "SUMMARY_VERSION",
    "DEFAULT_ENTRY_MODULES",
    "summarize_source",
    "summarize_text",
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


def _summarize_worker(item: Tuple[str, str]) -> dict:
    """Pool entry point: re-parse and summarize one file from raw text."""
    rel, text = item
    return summarize_text(rel, text)


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

    def __init__(
        self,
        entry_modules: Tuple[str, ...] = DEFAULT_ENTRY_MODULES,
        entropy_owners: FrozenSet[str] = taint.DEFAULT_ENTROPY_OWNERS,
        clock_exempt: FrozenSet[str] = taint.DEFAULT_CLOCK_EXEMPT,
        jobs: int = 1,
        cache_path: Optional[Path] = None,
    ):
        self._entry_modules = tuple(entry_modules)
        self._entropy_owners = frozenset(entropy_owners)
        self._clock_exempt = frozenset(clock_exempt)
        self._jobs = max(1, int(jobs))
        self._cache_path = cache_path
        #: Populated by :meth:`analyze`: the manifest of the last run.
        self.manifest: Optional[dict] = None
        self.cache_stats: Optional[dict] = None

    # -- summarize -------------------------------------------------------------

    def _summarize_all(self, sources: List[SourceFile]) -> dict:
        """rel -> summary for every source, via cache and/or the pool."""
        cache = SummaryCache(self._cache_path)
        summaries = {}
        pending: List[SourceFile] = []
        for source in sources:
            cached = cache.get(source.rel, source.text)
            if cached is not None:
                summaries[source.rel] = cached
            else:
                pending.append(source)
        if pending:
            if self._jobs > 1 and len(pending) > 1 and self._pool_usable():
                fresh = self._summarize_pool(pending)
            else:
                fresh = {s.rel: summarize_source(s) for s in pending}
            for source in pending:
                summaries[source.rel] = fresh[source.rel]
                cache.put(source.rel, source.text, fresh[source.rel])
        cache.prune(summaries)
        cache.save()
        self.cache_stats = {"hits": cache.hits, "misses": cache.misses}
        return summaries

    def _pool_usable(self) -> bool:
        from ...core.parallel import parallel_supported

        return parallel_supported()

    def _summarize_pool(self, pending: List[SourceFile]) -> dict:
        """Shard per-file summarization across a process pool.

        Workers re-parse from raw text (AST objects don't pickle), and
        results are keyed by rel, so the merge is order-independent:
        the downstream link stage sorts by rel regardless of completion
        order and the output is byte-identical to the serial path.
        """
        from concurrent.futures import ProcessPoolExecutor

        from ...core.parallel import resolve_workers

        workers = min(resolve_workers(self._jobs), len(pending))
        items = [(s.rel, s.text) for s in pending]
        try:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                results = list(pool.map(_summarize_worker, items, chunksize=4))
        except (OSError, ImportError):  # pool refused to start: degrade
            return {s.rel: summarize_source(s) for s in pending}
        return {rel: summary for (rel, _), summary in zip(items, results)}

    # -- analyze ---------------------------------------------------------------

    def analyze(self, sources: List[SourceFile]) -> List[LintFinding]:
        """Run the full summarize/link/fixpoint pipeline over *sources*."""
        summaries = self._summarize_all(sources)
        graph = CallGraph(summaries)
        entropy = taint.propagate(
            graph, taint.entropy_seeds(graph, self._entropy_owners)
        )
        clock = taint.propagate(graph, taint.clock_seeds(graph, self._clock_exempt))
        entries = taint.discover_entry_points(graph, self._entry_modules)
        reachable = taint.forward_reachable(graph, entries)

        findings: List[LintFinding] = []
        findings.extend(taint.entry_point_findings(graph, entries, entropy, clock))
        findings.extend(taint.rng_default_findings(graph, reachable))
        findings.extend(taint.escape_findings(graph))
        findings.extend(taint.wire_type_findings(graph))

        verdicts = purity.entry_verdicts(graph, entries, entropy, clock)
        self.manifest = purity.manifest_document(graph, verdicts)
        return findings
