"""Wire serialisation of campaign results: lossless, lean, registry-free.

Results cross process boundaries when campaigns are sharded, so the wire
form must (a) round-trip without losing a bit, (b) be JSON-clean so no
live object can hide inside, and (c) never drag heavyweight state — in
particular the :class:`~repro.zwave.registry.SpecRegistry` — through the
worker pipes.
"""

import json
import pickle

import pytest

from repro.core.baseline import VFuzzBaseline
from repro.core.campaign import Mode, run_campaign
from repro.core.parallel import CampaignUnit, rehydrate_unit_result
from repro.core.resultio import (
    campaign_from_wire,
    campaign_to_wire,
    vfuzz_to_wire,
)
from repro.simulator.testbed import build_sut
from repro.wire import WIRE_VERSION, WireError, dumps_wire, loads_wire


def vfuzz_from_wire(data):
    """A vfuzz unit's wire result, decoded as the executor decodes it."""
    return rehydrate_unit_result(CampaignUnit(kind="vfuzz"), data)

DURATION = 600.0


@pytest.fixture(scope="module")
def result():
    return run_campaign("D1", Mode.FULL, duration=DURATION, seed=3)


@pytest.fixture(scope="module")
def vfuzz_result():
    sut = build_sut("D2", seed=3)
    return VFuzzBaseline(sut, seed=3).run(DURATION)


class TestCampaignWire:
    def test_roundtrip_is_lossless(self, result):
        restored = campaign_from_wire(campaign_to_wire(result))
        assert restored == result
        assert restored.matched_bug_ids == result.matched_bug_ids
        assert restored.discovery_timeline() == result.discovery_timeline()
        assert restored.to_dict() == result.to_dict()

    def test_wire_is_json_clean(self, result):
        text = dumps_wire(campaign_to_wire(result))
        assert campaign_from_wire(loads_wire(text)) == result
        # json round trip proves there is no live object in the tree
        assert json.loads(text) == campaign_to_wire(result)

    def test_double_roundtrip_is_stable(self, result):
        once = campaign_to_wire(result)
        twice = campaign_to_wire(campaign_from_wire(once))
        assert dumps_wire(once) == dumps_wire(twice)

    def test_wire_version_guard(self, result):
        stale = campaign_to_wire(result)
        stale["wire_version"] = WIRE_VERSION + 1
        with pytest.raises(WireError):
            campaign_from_wire(stale)

    def test_signature_keys_survive(self, result):
        restored = campaign_from_wire(campaign_to_wire(result))
        assert list(restored.unique) == list(result.unique)
        for signature in restored.unique:
            cmdcl, kind, duration = signature
            assert isinstance(cmdcl, int) and isinstance(kind, str)
            assert duration is None or isinstance(duration, int)


class TestNoRegistryCrossesTheBoundary:
    def test_pickled_result_has_no_registry(self, result):
        # Campaign results are plain data all the way down: pickling one
        # must not serialise a SpecRegistry (or any simulator machinery).
        blob = pickle.dumps(result)
        for forbidden in (b"SpecRegistry", b"CommandClass", b"simulator"):
            assert forbidden not in blob

    def test_wire_pickle_is_compact(self, result):
        # The wire form of a short campaign is a few tens of KB; a
        # dragged-in registry would add the full 122-class spec. Guard
        # with a generous ceiling so growth is deliberate.
        assert len(pickle.dumps(campaign_to_wire(result))) < 200_000

    def test_unique_findings_resolve_bugs_without_registry(self, result):
        restored = campaign_from_wire(campaign_to_wire(result))
        # bug/bug_id are recomputed from the ZERO_DAYS table on access.
        assert {u.bug_id for u in restored.unique.values()} == {
            u.bug_id for u in result.unique.values()
        }


class TestVFuzzWire:
    def test_roundtrip_is_lossless(self, vfuzz_result):
        restored = vfuzz_from_wire(vfuzz_to_wire(vfuzz_result))
        assert restored == vfuzz_result
        assert restored.unique_vulnerabilities == vfuzz_result.unique_vulnerabilities

    def test_wire_is_json_clean(self, vfuzz_result):
        text = dumps_wire(vfuzz_to_wire(vfuzz_result))
        assert vfuzz_from_wire(loads_wire(text)) == vfuzz_result

    def test_wire_version_guard(self, vfuzz_result):
        stale = vfuzz_to_wire(vfuzz_result)
        del stale["wire_version"]
        with pytest.raises(WireError):
            vfuzz_from_wire(stale)
