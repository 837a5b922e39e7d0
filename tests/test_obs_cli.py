"""Tests for the export formats and the obs-facing CLI surface.

Includes the acceptance criterion: ``zcover trials --workers 2
--metrics-out`` writes the same bytes as the serial run.
"""

import json

import pytest

from repro.cli import main
from repro.obs.export import (
    SCHEMA,
    SCHEMA_VERSION,
    MetricsDocument,
    ObsExportError,
    dumps_document,
    load_document,
    render_prometheus,
    render_text,
    snapshot_to_document,
)
from repro.obs.metrics import MetricsCollector
from repro.wire import decode, encode

OBS_ARGS = ["obs", "--device", "D1", "--hours", "0.1", "--seed", "0"]


def _sample_document():
    collector = MetricsCollector()
    collector.inc("fuzzer.frames_tx", 7)
    collector.gauge_max("campaign.duration_s", 360.0)
    collector.observe("fuzzer.payload_len", 3)
    collector.cover(0x25, 0x01)
    collector.cover(0x25, 0x02)
    collector.cover(0x86)
    collector.record_span("campaign.fuzz", 360_000_000)
    return snapshot_to_document(collector.snapshot(), meta={"kind": "test"})


def _decoded(doc):
    return decode(MetricsDocument, doc, "metrics document")


class TestDocument:
    def test_envelope(self):
        doc = _sample_document()
        assert doc["schema"] == SCHEMA
        assert doc["schema_version"] == SCHEMA_VERSION
        assert doc["meta"] == {"kind": "test"}

    def test_roundtrip(self):
        doc = _sample_document()
        assert encode(decode(MetricsDocument, doc, "metrics document")) == doc

    def test_rejects_foreign_documents(self):
        with pytest.raises(ObsExportError):
            decode(MetricsDocument, {"schema": "other", "schema_version": 1}, "metrics document")
        doc = _sample_document()
        doc["schema_version"] = SCHEMA_VERSION + 1
        with pytest.raises(ObsExportError):
            decode(MetricsDocument, doc, "metrics document")

    def test_dumps_is_canonical(self):
        text = dumps_document(_sample_document())
        assert text.endswith("\n")
        assert text == dumps_document(_sample_document())
        keys = list(json.loads(text))
        assert keys == sorted(keys)

    def test_file_roundtrip(self, tmp_path):
        from repro.obs.export import write_document

        path = tmp_path / "m.json"
        doc = _sample_document()
        write_document(doc, str(path))
        assert encode(load_document(str(path))) == doc


class TestRenderers:
    def test_text_table(self):
        text = render_text(_decoded(_sample_document()))
        assert "fuzzer.frames_tx" in text
        assert "25" in text  # the coverage class
        assert "campaign.fuzz" in text

    def test_prometheus_format(self):
        prom = render_prometheus(_decoded(_sample_document()))
        assert 'zcover_counter_total{name="fuzzer.frames_tx"} 7' in prom
        assert 'zcover_coverage_total{cmdcl="25",cmd="01"} 1' in prom
        assert 'zcover_coverage_total{cmdcl="86",cmd="none"} 1' in prom
        assert "zcover_span_count" in prom
        assert "zcover_span_sim_seconds" in prom
        # cumulative histogram: +Inf bucket equals the count
        assert 'le="+Inf"' in prom


class TestObsCommand:
    def test_text_smoke(self, capsys):
        assert main(OBS_ARGS) == 0
        out = capsys.readouterr().out
        assert "fuzzer.frames_tx" in out

    def test_json_then_in_roundtrip(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        assert main(OBS_ARGS + ["--format", "json", "--out", str(path)]) == 0
        capsys.readouterr()
        doc = load_document(str(path))
        assert doc.meta["device"] == "D1"
        assert main(["obs", "--in", str(path), "--format", "prom"]) == 0
        out = capsys.readouterr().out
        assert "zcover_counter_total" in out

    def test_trace_export(self, capsys, tmp_path):
        trace = tmp_path / "trace.jsonl"
        assert main(OBS_ARGS + ["--trace-out", str(trace)]) == 0
        capsys.readouterr()
        lines = trace.read_text().splitlines()
        assert lines
        names = {json.loads(line)["name"] for line in lines}
        assert "campaign.fuzz" in names


class TestMetricsOutDeterminism:
    """Acceptance: serial and --workers 2 metrics files are byte-identical."""

    def test_trials_metrics_out_worker_invariant(self, capsys, tmp_path):
        serial = tmp_path / "serial.json"
        parallel = tmp_path / "parallel.json"
        base = ["trials", "--device", "D1", "--trials", "2", "--hours", "0.1"]
        assert main(base + ["--workers", "1", "--metrics-out", str(serial)]) == 0
        assert main(base + ["--workers", "2", "--metrics-out", str(parallel)]) == 0
        capsys.readouterr()
        assert serial.read_bytes() == parallel.read_bytes()
        doc = load_document(str(serial))
        assert doc.meta["kind"] == "trials"
        assert doc.counters["parallel.units"] == 2

    def test_ablation_metrics_out(self, capsys, tmp_path):
        path = tmp_path / "ablation.json"
        args = [
            "ablation", "--device", "D1", "--hours", "0.1",
            "--metrics-out", str(path),
        ]
        assert main(args) == 0
        capsys.readouterr()
        doc = load_document(str(path))
        assert doc.meta["kind"] == "ablation"
        assert doc.counters["fuzzer.frames_tx"] > 0
