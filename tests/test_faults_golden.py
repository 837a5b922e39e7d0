"""Golden chaos report: the fault stack's byte-for-byte regression pin.

``tests/data/faults_golden.json`` freezes the canonical chaos documents
for seed-0 trial series on both testbed devices under the canonical
mixed plan — every fault layer exercised, including the 480 s abort that
tags each trial with a degradation record.  Any drift in plan wire
format, fault scheduling, degradation tagging, or report canonicalisation
shows up as a byte diff here (same convention as ``obs_golden.json``).

Regenerate after an intentional schema change with::

    PYTHONPATH=src:tests python -c \
        "import test_faults_golden as t; t.write_golden()"
"""

import json
from pathlib import Path

import pytest

from repro.core.campaign import Mode
from repro.core.trials import run_trials
from repro.faults.plan import canonical_mixed_plan
from repro.faults.report import SCHEMA, build_chaos_document
from repro.obs.export import canonical_dumps

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "faults_golden.json"

DEVICES = ("D1", "D2")
DURATION = 600.0
TRIALS = 2
SEED = 0


def _run_device(device):
    plan = canonical_mixed_plan()
    summary = run_trials(
        device=device,
        mode=Mode.FULL,
        n_trials=TRIALS,
        duration=DURATION,
        base_seed=SEED,
        workers=1,
        fault_plan=plan,
    )
    return summary, plan


def build_golden_text(summaries=None):
    """Both devices' chaos documents, concatenated in device order."""
    summaries = summaries or {device: _run_device(device) for device in DEVICES}
    return "".join(
        canonical_dumps(build_chaos_document(summary, plan, SEED))
        for summary, plan in (summaries[device] for device in DEVICES)
    )


def write_golden(summaries=None):
    """Regenerate the golden file through the exact code path the test uses."""
    GOLDEN_PATH.write_text(build_golden_text(summaries))


@pytest.fixture(scope="module")
def summaries():
    return {device: _run_device(device) for device in DEVICES}


class TestGolden:
    def test_documents_match_golden_bytes(self, summaries):
        assert GOLDEN_PATH.exists(), "run write_golden() to create the golden file"
        assert build_golden_text(summaries) == GOLDEN_PATH.read_text()

    def test_every_fault_layer_left_a_mark(self, summaries):
        """The canonical plan is only a good pin if it exercises all
        layers: medium faults counted, controller faults counted, and the
        480 s abort degraded every 600 s trial."""
        for device in DEVICES:
            summary, _ = summaries[device]
            counters = summary.merged_metrics().counters
            for key in (
                "faults.injected.medium.drop",
                "faults.injected.medium.corrupt",
                "faults.injected.controller.hang",
                "faults.injected.controller.spurious-reset",
                "faults.injected.campaign.abort",
            ):
                assert counters[key] > 0, f"{device}: {key} never fired"
            assert all(
                t.degradation is not None and t.degradation.reason == "abort"
                for t in summary.trials
            )

    def test_golden_documents_are_schema_tagged(self):
        decoder = json.JSONDecoder()
        text = GOLDEN_PATH.read_text()
        index = 0
        count = 0
        while index < len(text.rstrip()):
            doc, end = decoder.raw_decode(text, index)
            assert doc["schema"] == SCHEMA
            index = end + 1  # skip the trailing newline between documents
            count += 1
        assert count == len(DEVICES)
