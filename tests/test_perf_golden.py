"""Byte-identity golden for the hot-path optimisation pass.

The perf PR rewrites the inner loops (frame codec caches, PSM batch
caching, dispatch precomputation); this golden proves the rewrite is
observationally invisible: the full wire form of a seed-0 two-device
FULL campaign — every test case, detection, bug record and metric — is
pinned byte-for-byte, and the sharded path (``execute_units`` with two
workers) must reproduce the identical bytes.

``tests/data/obs_golden.json`` pins the merged *metrics* document for the
same pair; this golden pins the complete ``CampaignResult`` wire text,
so a cache that perturbs even one payload byte or counter fails here.

Regenerate after an *intentional* behaviour change with::

    PYTHONPATH=src:tests python -c \
        "import test_perf_golden as t; t.write_golden()"
"""

import json
from pathlib import Path

import pytest

from repro.core.campaign import Mode, run_campaign
from repro.core.parallel import CampaignUnit, execute_units
from repro.core.resultio import campaign_to_wire
from repro.obs.export import canonical_dumps, snapshot_to_document
from repro.obs.metrics import merge_snapshots
from repro.wire import dumps_wire

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "perf_golden.json"

DEVICES = ("D1", "D2")
DURATION = 600.0
SEED = 0


def _run_pair():
    return {
        device: run_campaign(device, Mode.FULL, duration=DURATION, seed=SEED)
        for device in DEVICES
    }


def build_golden_document(results=None):
    """Wire text per device plus the merged metrics document."""
    results = results or _run_pair()
    merged = results[DEVICES[0]].metrics
    for device in DEVICES[1:]:
        merged = merge_snapshots(merged, results[device].metrics)
    return {
        "schema": "zcover-perf-golden",
        "schema_version": 1,
        "meta": {
            "devices": ",".join(DEVICES),
            "duration_s": DURATION,
            "mode": "FULL",
            "seed": SEED,
        },
        "wire": {
            device: dumps_wire(campaign_to_wire(results[device]))
            for device in DEVICES
        },
        "metrics": snapshot_to_document(merged, meta={"kind": "perf-golden"}),
    }


def write_golden(results=None):
    GOLDEN_PATH.write_text(canonical_dumps(build_golden_document(results)))


@pytest.fixture(scope="module")
def results():
    return _run_pair()


@pytest.fixture(scope="module")
def golden():
    assert GOLDEN_PATH.exists(), "run write_golden() to create the golden file"
    return json.loads(GOLDEN_PATH.read_text())


class TestSerialIdentity:
    def test_document_matches_golden_bytes(self, results, golden):
        assert canonical_dumps(build_golden_document(results)) == GOLDEN_PATH.read_text()

    def test_each_wire_form_pinned(self, results, golden):
        for device in DEVICES:
            assert (
                dumps_wire(campaign_to_wire(results[device]))
                == golden["wire"][device]
            )


class TestShardedIdentity:
    """--workers 2 must reproduce the serial bytes exactly."""

    def test_workers_two_matches_golden(self, golden):
        units = [
            CampaignUnit(device=device, mode=Mode.FULL, duration=DURATION, seed=SEED)
            for device in DEVICES
        ]
        outcomes = execute_units(units, workers=2)
        for unit, outcome in zip(units, outcomes):
            assert outcome.failure is None, outcome.failure
            assert (
                dumps_wire(campaign_to_wire(outcome.result))
                == golden["wire"][unit.device]
            )
