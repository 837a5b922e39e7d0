"""Unit tests for the ``repro.perf`` microbenchmark harness."""

import copy
import json

import pytest

# BenchTiming is aliased so pytest's Bench* collection pattern skips it.
from repro.perf.bench import BenchTiming as Timing
from repro.perf.bench import (
    PerfError,
    compare,
    resolve_workloads,
    run_bench,
)
from repro.perf.document import (
    DOCUMENT_NAME,
    SCHEMA,
    dumps_document,
    load_document,
    render_text,
    report_to_document,
    validate_document,
    write_document,
)
from repro.perf.workloads import CALIBRATION, WORKLOADS
from repro.wire import encode

#: Cheap workloads for harness tests (no campaign simulation in prepare).
QUICK = ["frame_codec", "mutation_batch"]


@pytest.fixture(scope="module")
def quick_report():
    return run_bench(names=QUICK, fast=True, repeats=2)


@pytest.fixture(scope="module")
def quick_document(quick_report):
    return report_to_document(quick_report)


def gate(current, baseline, **kwargs):
    """The regression gate over two (possibly edited) document dicts."""
    return compare(validate_document(current), validate_document(baseline), **kwargs)


class TestResolveWorkloads:
    def test_default_is_every_workload(self):
        assert resolve_workloads(None) == list(WORKLOADS)

    def test_subset_keeps_registry_order_and_adds_calibration(self):
        resolved = resolve_workloads(["mutation_batch", "frame_codec"])
        assert resolved[0] == CALIBRATION
        assert resolved[1:] == ["frame_codec", "mutation_batch"]

    def test_unknown_workload_rejected(self):
        with pytest.raises(PerfError, match="unknown workload"):
            resolve_workloads(["frame_codec", "no_such_thing"])


class TestRunBench:
    def test_rejects_zero_repeats(self):
        with pytest.raises(PerfError, match="repeats"):
            run_bench(names=QUICK, fast=True, repeats=0)

    def test_timings_cover_selection_plus_calibration(self, quick_report):
        assert [t.name for t in quick_report.timings] == [CALIBRATION] + QUICK
        for timing in quick_report.timings:
            assert timing.ops > 0
            assert 0 < timing.best_ns <= timing.mean_ns
            assert timing.reps == 2

    def test_checksums_reproduce_across_harness_runs(self, quick_report):
        again = run_bench(names=QUICK, fast=True, repeats=1)
        for timing in quick_report.timings:
            twin = again.timing(timing.name)
            assert (twin.ops, twin.checksum) == (timing.ops, timing.checksum)

    def test_ratios_are_calibration_normalised(self, quick_report):
        ratios = quick_report.ratios()
        assert ratios[CALIBRATION] == pytest.approx(1.0)
        assert all(value > 0.0 for value in ratios.values())

    def test_metrics_side_channel_recorded(self, quick_report):
        assert quick_report.snapshot.counters.get("mutation.generated", 0) > 0


class TestDocument:
    def test_envelope_and_cleanliness(self, quick_document):
        validate_document(quick_document)
        assert quick_document["schema"] == SCHEMA
        assert set(quick_document["results"]) == {CALIBRATION, *QUICK}
        assert quick_document["meta"]["fast"] is True

    def test_canonical_serialisation_round_trips(self, quick_document, tmp_path):
        path = tmp_path / DOCUMENT_NAME
        write_document(quick_document, str(path))
        loaded = load_document(str(path))
        assert loaded == validate_document(json.loads(dumps_document(quick_document)))
        assert dumps_document(encode(loaded)) == dumps_document(quick_document)

    def test_render_text_lists_every_workload(self, quick_document):
        rendered = render_text(validate_document(quick_document))
        for name in (CALIBRATION, *QUICK):
            assert name in rendered

    def test_validate_rejects_foreign_schema(self, quick_document):
        doc = copy.deepcopy(quick_document)
        doc["schema"] = "zcover-obs-metrics"
        with pytest.raises(PerfError, match="schema must be 'zcover-perf-bench'"):
            validate_document(doc)

    def test_validate_rejects_missing_fields(self, quick_document):
        doc = copy.deepcopy(quick_document)
        del doc["results"]["frame_codec"]["checksum"]
        with pytest.raises(PerfError, match="missing field 'results\\['frame_codec'\\].checksum'"):
            validate_document(doc)


class TestCompareGate:
    def test_identical_documents_have_no_regressions(self, quick_document):
        assert gate(quick_document, quick_document) == []

    def test_slowdown_beyond_tolerance_flagged(self, quick_document):
        slower = copy.deepcopy(quick_document)
        entry = slower["results"]["frame_codec"]
        entry["ratio_to_calibration"] = entry["ratio_to_calibration"] * 2.0
        regressions = gate(slower, quick_document, tolerance=0.25)
        assert [r.name for r in regressions] == ["frame_codec"]
        assert regressions[0].kind == "slowdown"

    def test_slowdown_within_tolerance_passes(self, quick_document):
        slower = copy.deepcopy(quick_document)
        entry = slower["results"]["frame_codec"]
        entry["ratio_to_calibration"] = entry["ratio_to_calibration"] * 1.2
        assert gate(slower, quick_document, tolerance=0.25) == []

    def test_checksum_drift_flagged(self, quick_document):
        drifted = copy.deepcopy(quick_document)
        drifted["results"]["mutation_batch"]["checksum"] += 1
        regressions = gate(drifted, quick_document)
        assert [(r.name, r.kind) for r in regressions] == [("mutation_batch", "checksum")]

    def test_missing_workload_flagged(self, quick_document):
        partial = copy.deepcopy(quick_document)
        del partial["results"]["mutation_batch"]
        regressions = gate(partial, quick_document)
        assert [(r.name, r.kind) for r in regressions] == [("mutation_batch", "ops")]

    def test_mode_mismatch_short_circuits(self, quick_document):
        full = copy.deepcopy(quick_document)
        full["meta"]["fast"] = False
        regressions = gate(full, quick_document)
        assert len(regressions) == 1
        assert regressions[0].name == "*"
        assert "mode mismatch" in regressions[0].detail

    def test_calibration_never_flagged(self, quick_document):
        slower = copy.deepcopy(quick_document)
        entry = slower["results"][CALIBRATION]
        entry["ratio_to_calibration"] = 99.0
        assert gate(slower, quick_document) == []


class TestBenchTiming:
    def test_per_op_and_rate_derivations(self):
        timing = Timing(
            name="x", ops=1000, reps=3, best_ns=2_000_000, mean_ns=2_500_000,
            checksum=7,
        )
        assert timing.ns_per_op == pytest.approx(2000.0)
        assert timing.ops_per_sec == pytest.approx(500_000.0)
