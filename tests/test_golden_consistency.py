"""Cross-file consistency of the committed golden pins (ISSUE 10).

Every golden file pins its own artefact; this suite pins the *pins* and
the relationships between files from the committed bytes — apart from two
sub-second session runs and two short experiment documents, no campaigns
run here, so it stays fast and catches silent regeneration:

* the SHA-256 of each campaign/session wire pin is itself pinned, so a
  ``write_golden()`` run that changes bytes cannot slip through review
  without this file changing too;
* every embedded wire document carries the current ``WIRE_VERSION``;
* ``perf_golden``'s merged metrics document is recomputed from its own
  embedded per-device wires — the two sections can never diverge;
* ``serve_golden``'s checkpoint lines re-verify against the live
  ``record_crc``, so the CRC convention and the golden agree;
* two live session runs hash their full wire bytes, metrics histograms
  included: the seed-0 D1 run against its ``session_golden`` pin, and a
  long-sequence plan whose ``session.events_per_trial`` reaches the
  ``inf`` bucket;
* the serial oracle documents of one ``ablation`` job (coverage arm
  included) and one two-device ``compare`` job hash to pinned digests;
* ``BENCH_core.json`` keeps the engine-migration acceptance locked in:
  the campaign_fps ratio must stay at least 2x better than the retired
  per-closure engine's committed 1831.5384.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.resultio import campaign_from_wire, session_to_wire
from repro.core.session import SessionPlan, run_sessions
from repro.obs.export import snapshot_to_document
from repro.obs.metrics import merge_snapshots
from repro.serve.checkpoint import record_crc
from repro.serve.protocol import JobSpec
from repro.serve.results import direct_document, dumps_result_document
from repro.wire import WIRE_VERSION, dumps_wire, loads_wire, require_wire_version

DATA = Path(__file__).resolve().parent / "data"
BENCH = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines" / "BENCH_core.json"

#: SHA-256 of the campaign wire text pinned per device in perf_golden.json.
PERF_WIRE_SHA256 = {
    "D1": "bd930b437b3daedf40a66ba4a1b356a65321956dbf64406ba0b3222968459ebf",
    "D2": "21196eea1d23e55a49edb9395f14bcc0f6eec43993f978dd567d5b27c70bfc89",
}

#: The wire_sha256 pins session_golden.json carries per device.
SESSION_WIRE_SHA256 = {
    "D1": "b625875043cca0867774def1917e7e84cbd0de94aa3ec2ab35cfbeea7389229d",
    "D2": "cac80ff329e72faae2e68bcb53ddb0df6f31296360344feb5d0b419398dfb2a8",
}

#: A plan whose trials run past 32 events, so every histogram bucket of
#: ``session.events_per_trial`` and ``session.ops_per_trial`` can fill;
#: run on D2 with seed 3.
LONG_SESSION_PLAN = SessionPlan(
    name="long", trials=16, min_ops=32, max_ops=96, exploit_boost=8
)

#: SHA-256 of that run's session wire text.
LONG_SESSION_WIRE_SHA256 = "a97ffb6bf1fa1c015cc3cf4ae49bbbb26564b3c1cc7d40c2dfb794975627c2e1"

#: SHA-256 of the serial oracle document of each pinned experiment job.
EXPERIMENT_DOCUMENT_SHA256 = {
    JobSpec(kind="ablation", hours=0.05, scheduler="coverage"):
        "17e040d8b440390d7c83d84250e69ddb0f612776f7ff631efad2148fd69617df",
    JobSpec(kind="compare", devices=("D1", "D2"), hours=0.05):
        "94ffd851246e837297ad7eb01afc0e7181b25a1eed7914b63fdca22aaca1fc7c",
}

#: The retired legacy engine's committed campaign_fps ratio; the batched
#: engine's baseline must stay at least 2x below it.
LEGACY_CAMPAIGN_FPS_RATIO = 1831.5384


def _wire_sha256(wire):
    return hashlib.sha256(dumps_wire(wire).encode("utf-8")).hexdigest()


def _json_documents(path):
    """Parse a golden file holding one or more concatenated JSON docs."""
    text = path.read_text()
    decoder = json.JSONDecoder()
    documents, index = [], 0
    while index < len(text) and text[index:].strip():
        document, end = decoder.raw_decode(text, index)
        documents.append(document)
        index = end
        while index < len(text) and text[index] in " \n":
            index += 1
    return documents


@pytest.fixture(scope="module")
def perf_golden():
    return json.loads((DATA / "perf_golden.json").read_text())


@pytest.fixture(scope="module")
def session_golden():
    return _json_documents(DATA / "session_golden.json")


@pytest.fixture(scope="module")
def serve_golden():
    return json.loads((DATA / "serve_golden.json").read_text())


@pytest.fixture(scope="module")
def bench_baseline():
    return json.loads(BENCH.read_text())


class TestWireShaPins:
    def test_perf_golden_wire_sha_pins(self, perf_golden):
        assert set(perf_golden["wire"]) == set(PERF_WIRE_SHA256)
        for device, wire_text in perf_golden["wire"].items():
            digest = hashlib.sha256(wire_text.encode("utf-8")).hexdigest()
            assert digest == PERF_WIRE_SHA256[device], device

    def test_session_golden_wire_sha_pins(self, session_golden):
        found = {doc["device"]: doc["wire_sha256"] for doc in session_golden}
        assert found == SESSION_WIRE_SHA256

    def test_all_sha_pins_are_distinct(self):
        pins = list(PERF_WIRE_SHA256.values()) + list(SESSION_WIRE_SHA256.values())
        pins.append(LONG_SESSION_WIRE_SHA256)
        pins.extend(EXPERIMENT_DOCUMENT_SHA256.values())
        assert len(set(pins)) == len(pins)


class TestLiveSessionWirePins:
    """Whole session wires, metrics included, hashed from live runs."""

    def test_seed0_d1_run_matches_its_golden_pin(self):
        result = run_sessions("D1", seed=0)
        assert _wire_sha256(session_to_wire(result)) == SESSION_WIRE_SHA256["D1"]

    def test_long_plan_run_fills_the_inf_bucket(self):
        result = run_sessions("D2", seed=3, plan=LONG_SESSION_PLAN)
        histograms = result.metrics.histograms
        assert histograms["session.events_per_trial"]["inf"] > 0
        assert histograms["session.ops_per_trial"]["inf"] > 0
        assert _wire_sha256(session_to_wire(result)) == LONG_SESSION_WIRE_SHA256


class TestExperimentDocumentPins:
    """The ablation and compare documents, hashed from live oracle runs."""

    @pytest.mark.parametrize(
        "spec", list(EXPERIMENT_DOCUMENT_SHA256), ids=["ablation", "compare"]
    )
    def test_direct_document_matches_its_pin(self, spec):
        text = dumps_result_document(direct_document(spec))
        digest = hashlib.sha256(text.encode("utf-8")).hexdigest()
        assert digest == EXPERIMENT_DOCUMENT_SHA256[spec]


class TestWireVersions:
    def test_perf_golden_wires_carry_current_version(self, perf_golden):
        for device, wire_text in perf_golden["wire"].items():
            wire = loads_wire(wire_text)
            require_wire_version(wire, f"perf_golden wire {device}")

    def test_serve_golden_wire_version(self, serve_golden):
        assert serve_golden["wire_version"] == WIRE_VERSION
        for spec in serve_golden["specs"]:
            require_wire_version(spec["wire"], f"serve_golden spec {spec['job_id']}")


class TestInternalCrossChecks:
    def test_perf_golden_metrics_match_embedded_wires(self, perf_golden):
        """The merged metrics document must equal the merge of the
        metrics snapshots inside the file's own wire texts."""
        devices = perf_golden["meta"]["devices"].split(",")
        results = [
            campaign_from_wire(loads_wire(perf_golden["wire"][device]))
            for device in devices
        ]
        merged = results[0].metrics
        for result in results[1:]:
            merged = merge_snapshots(merged, result.metrics)
        recomputed = snapshot_to_document(merged, meta={"kind": "perf-golden"})
        assert recomputed == perf_golden["metrics"]

    def test_serve_checkpoint_lines_crc_verify(self, serve_golden):
        for line in serve_golden["checkpoint_lines"]:
            wrapper = json.loads(line)
            assert wrapper["crc"] == record_crc(wrapper["record"]), line

    def test_serve_oracle_sha_shape(self, serve_golden):
        digest = serve_golden["oracle_sha256"]
        assert len(digest) == 64 and int(digest, 16) >= 0

    def test_fixture_family_coherent(self, perf_golden, session_golden):
        """The golden suite is one seed-0 fixture family."""
        assert perf_golden["meta"]["seed"] == 0
        assert perf_golden["meta"]["duration_s"] == 600.0
        assert perf_golden["meta"]["mode"] == "FULL"
        assert [doc["seed"] for doc in session_golden] == [0, 0]
        assert [doc["device"] for doc in session_golden] == ["D1", "D2"]


class TestBenchBaseline:
    def test_workload_checksums_are_pinned_and_nonzero(self, bench_baseline):
        results = bench_baseline["results"]
        assert results["campaign_fps"]["checksum"] == 3282250253
        for name, entry in results.items():
            assert isinstance(entry["checksum"], int) and entry["checksum"] != 0, name

    def test_campaign_fps_keeps_the_2x_migration_win(self, bench_baseline):
        ratio = bench_baseline["results"]["campaign_fps"]["ratio_to_calibration"]
        assert ratio <= LEGACY_CAMPAIGN_FPS_RATIO / 2, (
            f"campaign_fps baseline ratio {ratio} lost the 2x win over the "
            f"retired engine ({LEGACY_CAMPAIGN_FPS_RATIO})"
        )
