"""Unit tests for the observability metrics collector and merge API.

Also the lock that the obs snapshot and metrics-document dataclasses are
part of the wire-safety (W301/W302) vocabulary — the classes the
``@layout`` declarations reach — and that the whole tree, obs included,
lints clean.
"""

from pathlib import Path

import pytest

from repro.lint.base import collect_sources
from repro.lint.runner import run_lint
from repro.lint.wiresafety import wire_vocabulary
from repro.obs.metrics import (
    HISTOGRAM_BOUNDS,
    HISTOGRAM_KEYS,
    MetricsCollector,
    MetricsSnapshot,
    SpanStats,
    active_collector,
    collecting,
    cover_keys,
    coverage_key,
    format_frames_per_bug,
    frames_per_bug,
    harness_snapshot,
    inc,
    merge_all,
    merge_snapshots,
    observe,
    parse_coverage_key,
)

PACKAGE_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


class TestCollector:
    def test_counters_accumulate(self):
        c = MetricsCollector()
        c.inc("a")
        c.inc("a", 4)
        c.inc("b", 0)
        snap = c.snapshot()
        assert snap.counters == {"a": 5, "b": 0}

    def test_gauge_keeps_maximum(self):
        c = MetricsCollector()
        c.gauge_max("g", 2.0)
        c.gauge_max("g", 1.0)
        c.gauge_max("g", 3.5)
        assert c.snapshot().gauges == {"g": 3.5}

    def test_histogram_buckets(self):
        c = MetricsCollector()
        for value in (1, 2, 3, 9, 100):
            c.observe("h", value)
        hist = c.snapshot().histograms["h"]
        assert set(hist) == set(HISTOGRAM_KEYS)
        assert hist["le_1"] == 1
        assert hist["le_2"] == 1
        assert hist["le_4"] == 1  # 3 falls in (2, 4]
        assert hist["le_16"] == 1  # 9 falls in (8, 16]
        assert hist["inf"] == 1  # 100 beyond the last bound
        assert hist["count"] == 5
        assert hist["sum"] == 115

    def test_histogram_bounds_cover_edges(self):
        c = MetricsCollector()
        for bound in HISTOGRAM_BOUNDS:
            c.observe("h", bound)
        hist = c.snapshot().histograms["h"]
        for bound in HISTOGRAM_BOUNDS:
            assert hist[f"le_{bound}"] == 1
        assert hist["inf"] == 0

    def test_coverage_keys(self):
        c = MetricsCollector()
        c.cover(0x25, 0x01)
        c.cover(0x25, 0x01)
        c.cover(0x01)
        snap = c.snapshot()
        assert snap.coverage == {"25:01": 2, "01:-": 1}
        assert parse_coverage_key("25:01") == (0x25, 0x01)
        assert parse_coverage_key("01:-") == (0x01, None)
        assert coverage_key(0x25, 0x01) == "25:01"
        assert coverage_key(0x01) == "01:-"

    def test_span_aggregation(self):
        c = MetricsCollector()
        c.record_span("s", 100)
        c.record_span("s", 50)
        assert c.snapshot().spans == {"s": SpanStats(count=2, sim_time_us=150)}

    def test_snapshot_is_key_sorted_and_detached(self):
        c = MetricsCollector()
        c.inc("z")
        c.inc("a")
        snap = c.snapshot()
        assert list(snap.counters) == ["a", "z"]
        c.inc("a")  # mutating the collector must not touch the snapshot
        assert snap.counters["a"] == 1

    def test_reset(self):
        c = MetricsCollector()
        c.inc("a")
        c.cover(0x25)
        c.reset()
        assert c.snapshot().empty


class TestActiveStack:
    def test_module_helpers_are_noops_without_collector(self):
        assert active_collector() is None
        inc("never")  # must not raise
        observe("never", 1)
        cover_keys([coverage_key(0x25, 0x01)])

    def test_collecting_routes_and_restores(self):
        c = MetricsCollector()
        with collecting(c):
            assert active_collector() is c
            inc("hits")
            observe("lens", 3)
            cover_keys([coverage_key(0x25, 0x01)])
        assert active_collector() is None
        snap = c.snapshot()
        assert snap.counters == {"hits": 1}
        assert snap.coverage == {"25:01": 1}

    def test_nesting_uses_innermost(self):
        outer, inner = MetricsCollector(), MetricsCollector()
        with collecting(outer):
            with collecting(inner):
                inc("x")
            inc("y")
        assert inner.snapshot().counters == {"x": 1}
        assert outer.snapshot().counters == {"y": 1}

    def test_stack_restored_on_exception(self):
        c = MetricsCollector()
        with pytest.raises(RuntimeError):
            with collecting(c):
                raise RuntimeError("boom")
        assert active_collector() is None


class TestMerge:
    def test_counters_add_gauges_max(self):
        a, b = MetricsCollector(), MetricsCollector()
        a.inc("n", 2)
        a.gauge_max("g", 5.0)
        b.inc("n", 3)
        b.inc("only-b")
        b.gauge_max("g", 2.0)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged.counters == {"n": 5, "only-b": 1}
        assert merged.gauges == {"g": 5.0}

    def test_histograms_and_coverage_add(self):
        a, b = MetricsCollector(), MetricsCollector()
        a.observe("h", 1)
        a.cover(0x25, 0x01)
        b.observe("h", 100)
        b.cover(0x25, 0x01)
        b.cover(0x86)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged.histograms["h"]["count"] == 2
        assert merged.histograms["h"]["sum"] == 101
        assert merged.coverage == {"25:01": 2, "86:-": 1}

    def test_spans_add(self):
        a, b = MetricsCollector(), MetricsCollector()
        a.record_span("s", 10)
        b.record_span("s", 20)
        b.record_span("t", 5)
        merged = merge_snapshots(a.snapshot(), b.snapshot())
        assert merged.spans["s"] == SpanStats(count=2, sim_time_us=30)
        assert merged.spans["t"] == SpanStats(count=1, sim_time_us=5)

    def test_merge_all_empty(self):
        assert merge_all([]).empty

    def test_empty_is_identity(self):
        c = MetricsCollector()
        c.inc("a")
        c.observe("h", 3)
        c.cover(0x25, 0x01)
        c.record_span("s", 7)
        snap = c.snapshot()
        assert merge_snapshots(snap, MetricsSnapshot()) == snap
        assert merge_snapshots(MetricsSnapshot(), snap) == snap


class TestDerived:
    def test_frames_per_bug(self):
        c = MetricsCollector()
        c.inc("fuzzer.frames_tx", 800)
        c.inc("bugs.unique", 8)
        snap = c.snapshot()
        assert frames_per_bug(snap) == 100.0
        assert format_frames_per_bug(snap) == "100.0"

    def test_frames_per_bug_without_bugs(self):
        c = MetricsCollector()
        c.inc("fuzzer.frames_tx", 800)
        c.inc("bugs.unique", 0)
        assert frames_per_bug(c.snapshot()) is None
        assert format_frames_per_bug(c.snapshot()) == "n/a"
        assert frames_per_bug(MetricsSnapshot()) is None


class TestHarnessSnapshot:
    def test_clean_run(self):
        snap = harness_snapshot(units=3, attempts=[1, 1, 1], failure_categories=[])
        assert snap.counters["parallel.units"] == 3
        assert snap.counters["parallel.unit_attempts"] == 3
        assert snap.counters["parallel.unit_retries"] == 0
        assert snap.counters["parallel.unit_failures"] == 0
        assert snap.histograms["parallel.attempts_per_unit"]["count"] == 3

    def test_retries_and_failures(self):
        snap = harness_snapshot(
            units=3, attempts=[1, 2, 3], failure_categories=["timeout"]
        )
        assert snap.counters["parallel.unit_attempts"] == 6
        assert snap.counters["parallel.unit_retries"] == 3
        assert snap.counters["parallel.unit_failures"] == 1
        assert snap.counters["parallel.failures.timeout"] == 1


class TestWireVocabulary:
    """The obs snapshots and the metrics document are wire citizens."""

    def test_snapshot_types_are_in_the_vocabulary(self):
        vocabulary = wire_vocabulary(collect_sources(PACKAGE_ROOT))
        # MetricsSnapshot reaches the wire inside campaign and session
        # results; the metrics document is a root of its own.
        for name in ("MetricsSnapshot", "SpanStats", "SpanEntry", "MetricsDocument"):
            assert name in vocabulary

    def test_obs_sources_are_scanned(self):
        rels = {source.rel for source in collect_sources(PACKAGE_ROOT)}
        assert "obs/metrics.py" in rels
        assert "obs/tracing.py" in rels
        assert "obs/export.py" in rels

    def test_lint_reports_zero_findings_with_obs(self):
        report = run_lint(root=PACKAGE_ROOT)
        assert report.findings == []
        assert report.exit_code == 0
