"""Golden session-fuzzer comparison: the seed-0 two-device byte pin.

``tests/data/session_golden.json`` freezes the seed-0 session campaign
on both testbed devices: the full mutation trajectory (one labelled
entry per trial), the per-state coverage counts of every flow's
``flow@state>mark`` bitmap, and which planted session vulnerability
fired at which sequence index of which trial.  The complete wire v5
encoding is pinned by SHA-256 so any drift in the schedule compiler,
the op applier, the lenient-controller evaluator, the energy loop or
the wire codec shows up as a byte diff here (same convention as
``scheduler_golden.json`` / ``faults_golden.json``).

Regenerate after an intentional engine change with::

    PYTHONPATH=src:tests python -c \
        "import test_session_golden as t; t.write_golden()"
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.core.resultio import session_to_wire
from repro.core.session import FLOWS, planted_vuln_ids, run_sessions
from repro.obs.metrics import is_state_coverage_key
from repro.wire import dumps_wire

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "session_golden.json"

SCHEMA = "zcover.session-golden/v1"
DEVICES = ("D1", "D2")
SEED = 0


def _run_device(device):
    return run_sessions(device, seed=SEED)


def _state_coverage(result):
    """Per-flow sorted ``state>mark`` hit counts from the coverage map."""
    by_flow = {flow: {} for flow in FLOWS}
    coverage = result.metrics.coverage if result.metrics is not None else {}
    for key, count in coverage.items():
        if not is_state_coverage_key(key):
            continue
        flow, transition = key.split("@", 1)
        by_flow[flow][transition] = count
    return {
        flow: {name: transitions[name] for name in sorted(transitions)}
        for flow, transitions in by_flow.items()
    }


def _document(result):
    """The golden-relevant slice of one device's session campaign."""
    wire_text = dumps_wire(session_to_wire(result))
    return {
        "schema": SCHEMA,
        "device": result.device,
        "seed": result.seed,
        "trials_by_flow": dict(sorted(result.trials_by_flow.items())),
        "op_counts": dict(sorted(result.op_counts.items())),
        "trajectory": [list(entry) for entry in result.trajectory],
        "bugs": [
            [bug.flow, bug.trial, bug.sequence_index, bug.vuln_id, bug.state]
            for bug in result.bugs
        ],
        "state_coverage": _state_coverage(result),
        "energy_trace": [list(entry) for entry in result.energy_trace],
        "wire_sha256": hashlib.sha256(wire_text.encode("utf-8")).hexdigest(),
    }


def build_golden_text(results=None):
    """Both devices' session documents, concatenated in device order."""
    results = results or {device: _run_device(device) for device in DEVICES}
    return "".join(
        json.dumps(_document(results[device]), sort_keys=True, indent=1) + "\n"
        for device in DEVICES
    )


def write_golden(results=None):
    """Regenerate the golden file through the exact code path the test uses."""
    GOLDEN_PATH.write_text(build_golden_text(results))


@pytest.fixture(scope="module")
def results():
    return {device: _run_device(device) for device in DEVICES}


class TestGolden:
    def test_documents_match_golden_bytes(self, results):
        assert GOLDEN_PATH.exists(), "run write_golden() to create the golden file"
        assert build_golden_text(results) == GOLDEN_PATH.read_text()

    def test_all_planted_bugs_found_on_every_device(self, results):
        """The acceptance criterion: seed 0 uncovers every planted session
        vulnerability on the whole device set."""
        planted = set(planted_vuln_ids())
        for device in DEVICES:
            result = results[device]
            assert set(result.found_vuln_ids) == planted

    def test_sharded_run_matches_the_golden_pin(self, results):
        """``--workers 2`` reproduces the pinned serial wire hash exactly."""
        pooled = run_sessions("D1", seed=SEED, workers=2)
        assert _document(pooled) == _document(results["D1"])

    def test_bug_records_point_into_their_trials(self, results):
        """Each pinned discovery names a real (flow, trial) of the run and
        a plausible sequence index for a mutated happy path."""
        for device in DEVICES:
            result = results[device]
            for bug in result.bugs:
                assert bug.flow in result.trials_by_flow
                assert 0 <= bug.trial < result.trials_by_flow[bug.flow]
                assert bug.sequence_index >= 0

    def test_state_coverage_agrees_with_transition_counters(self, results):
        """The per-flow bitmap sizes equal the ``session.transitions.*``
        counters the energy loop emitted."""
        for device in DEVICES:
            result = results[device]
            coverage = _state_coverage(result)
            counters = result.metrics.counters
            for flow in FLOWS:
                assert len(coverage[flow]) == counters[f"session.transitions.{flow}"]

    def test_golden_documents_are_schema_tagged(self):
        decoder = json.JSONDecoder()
        text = GOLDEN_PATH.read_text()
        index = 0
        seen = []
        while index < len(text.rstrip()):
            doc, end = decoder.raw_decode(text, index)
            assert doc["schema"] == SCHEMA
            assert set(doc["state_coverage"]) == set(FLOWS)
            seen.append(doc["device"])
            index = end + 1  # skip the trailing newline between documents
        assert tuple(seen) == DEVICES
