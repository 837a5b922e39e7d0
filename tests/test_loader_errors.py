"""Loaders and stores that read outside input decode through the wire
codec: trace files and bug logs name ``path:line`` on a bad line, metrics
documents reject mistyped sections, and the job service's write-ahead
checkpoint ends its trusted prefix at the first record that fails its
kind's layout."""

import json

import pytest

from repro.core.buglog import BugLog, BugRecord
from repro.errors import ReproError
from repro.serve.protocol import JobSpec, job_id_for
from repro.wire import WIRE_VERSION


class TestLineLoaders:
    """Trace and bug-log files: each line decodes through the codec, and a
    bad line raises a ReproError naming ``path:line``."""

    @pytest.fixture
    def trace_path(self, tmp_path):
        path = tmp_path / "capture.jsonl"
        path.write_text('{"t": 1.0, "rssi": -40.5, "raw": "01ff", "bit_errors": 2}\n')
        return path

    def test_trace_bytes_are_unchanged(self, sut, tmp_path):
        from repro.radio.trace import load_trace, save_trace

        sut.clock.advance(60.0)
        captures = sut.dongle.captures()
        path = tmp_path / "capture.jsonl"
        save_trace(captures, path)
        expected = [
            {"t": c.timestamp, "rssi": c.rssi_dbm, "raw": c.raw.hex(), "bit_errors": 0}
            for c in captures
        ]
        assert path.read_text() == "".join(json.dumps(line) + "\n" for line in expected)
        assert [r.raw for r in load_trace(path)] == [c.raw for c in captures]

    def test_bug_log_bytes_are_unchanged(self, tmp_path):
        path = tmp_path / "bugs.jsonl"
        BugLog([BugRecord(1.5, 3, 0x25, None, "2501", "hang")]).save(path)
        assert path.read_text() == (
            '{"timestamp": 1.5, "packet_no": 3, "cmdcl": 37, "cmd": null, '
            '"payload_hex": "2501", "observed": "hang"}\n'
        )
        assert BugLog.load(path).records() == [BugRecord(1.5, 3, 0x25, None, "2501", "hang")]

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"t": 2.0', "not valid JSON"),
            ("[2.0, -40.0]", "expected a JSON object, got list"),
            ('{"t": 2.0, "rssi": -40.0, "bit_errors": 0}', "missing field 'raw'"),
            ('{"t": 2.0, "rssi": -40.0, "raw": "00", "bit_errors": 0, "x": 1}', "unknown field 'x'"),
        ],
        ids=["bad-json", "array", "missing-key", "unknown-key"],
    )
    def test_bad_trace_line(self, trace_path, line, message):
        from repro.radio.trace import load_trace

        trace_path.write_text(trace_path.read_text() + line + "\n")
        with pytest.raises(ReproError, match=f"{trace_path}:2: {message}"):
            load_trace(trace_path)

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"timestamp": 1.5,', "not valid JSON"),
            ('[1.5, 3, 37, null, "2501", "hang"]', "expected a JSON object, got list"),
            (
                '{"timestamp": 1.5, "packet_no": 3, "cmdcl": 37, "payload_hex": "25", "observed": "hang"}',
                "missing field 'cmd'",
            ),
            (
                '{"timestamp": 1.5, "packet_no": 3, "cmdcl": 37, "cmd": 1, "payload_hex": "25", '
                '"observed": "hang", "note": ""}',
                "unknown field 'note'",
            ),
        ],
        ids=["bad-json", "array", "missing-key", "unknown-key"],
    )
    def test_bad_bug_log_line(self, tmp_path, line, message):
        path = tmp_path / "bugs.jsonl"
        BugLog([BugRecord(1.5, 3, 0x25, None, "2501", "hang")]).save(path)
        path.write_text(path.read_text() + line + "\n")
        with pytest.raises(ReproError, match=f"{path}:2: {message}"):
            BugLog.load(path)


class TestMetricsDocument:
    def test_export_error_is_a_repro_error(self):
        from repro.obs.export import ObsExportError

        assert issubclass(ObsExportError, ReproError)
        assert issubclass(ObsExportError, ValueError)

    @pytest.mark.parametrize(
        "section, value",
        [("spans", {"a": 5}), ("counters", {"a": "5"}), ("histograms", []), ("meta", None)],
    )
    def test_mistyped_sections_are_rejected(self, section, value):
        from repro.obs.export import ObsExportError, document_to_snapshot, snapshot_to_document
        from repro.obs.metrics import MetricsSnapshot

        doc = snapshot_to_document(MetricsSnapshot(), meta={"kind": "test"})
        doc[section] = value
        with pytest.raises(ObsExportError, match=f"metrics document: {section}"):
            document_to_snapshot(doc)

    def test_non_object_document_is_rejected(self):
        from repro.obs.export import ObsExportError, document_to_snapshot

        with pytest.raises(ObsExportError, match="expected a JSON object, got list"):
            document_to_snapshot([])


# -- the write-ahead checkpoint ------------------------------------------------

GOOD_SPEC = JobSpec(kind="trials", device="D1", seed=0, trials=1, hours=0.01)


def _job_record(**overrides):
    from repro.serve.checkpoint import job_record

    spec = overrides.pop("spec", GOOD_SPEC)
    record = job_record(job_id_for(spec), 0, spec)
    record.update(overrides)
    return {k: v for k, v in record.items() if v is not _ABSENT}


_ABSENT = object()

BAD_RECORDS = {
    "job-without-sequence": lambda: _job_record(sequence=_ABSENT),
    "job-with-text-sequence": lambda: _job_record(sequence="0"),
    "job-with-unknown-device": lambda: _job_record(spec=JobSpec(device="D99")),
    "job-with-stale-spec": lambda: {
        **_job_record(),
        "spec": {**_job_record()["spec"], "wire_version": WIRE_VERSION - 1},
    },
    "unknown-kind": lambda: {**_job_record(), "kind": "jobs"},
}


class TestCheckpointLayout:
    @pytest.mark.parametrize("case", sorted(BAD_RECORDS))
    def test_bad_record_ends_the_trusted_prefix(self, case, tmp_path):
        from repro.serve.checkpoint import DoneLine, encode_line, load_checkpoint
        from repro.wire import encode

        good = DoneLine("job-0000abcd", "done", "")
        path = tmp_path / "serve.ckpt"
        good_line = encode_line(encode(good))
        lines = [good_line, encode_line(BAD_RECORDS[case]()), good_line]
        path.write_text("".join(line + "\n" for line in lines))
        assert load_checkpoint(str(path)) == [good]

    @pytest.mark.parametrize("case", sorted(BAD_RECORDS))
    def test_service_starts_without_the_bad_job(self, case, tmp_path):
        from repro.serve.checkpoint import encode_line
        from repro.serve.service import ServiceThread

        record = BAD_RECORDS[case]()
        path = tmp_path / "serve.ckpt"
        path.write_text(encode_line(record) + "\n")
        thread = ServiceThread(checkpoint_path=str(path), workers=1).start()
        try:
            assert thread.port != 0
            assert thread.service.queue.all_records() == []
        finally:
            thread.stop()

    def test_undecodable_unit_result_is_run_again(self):
        from repro.serve.jobs import JobRecord
        from repro.serve.service import ZCoverService

        record = JobRecord(GOOD_SPEC, job_id_for(GOOD_SPEC), 0)
        record.preloaded = {0: (1, {"wire_version": WIRE_VERSION - 1})}
        outcomes = ZCoverService()._preloaded_outcomes(record)
        assert [outcome.result for outcome in outcomes] == [None]
