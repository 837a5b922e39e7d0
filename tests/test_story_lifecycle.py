"""A full smart-home lifecycle exercised end-to-end in one scenario.

The "story" integration test: commission a network from scratch, run it,
attack it with ZCover, triage the findings, defend it with the IDS, and
recover — every subsystem touching every other the way a downstream user
would combine them.
"""

import random

import pytest

from repro.analysis.ids import ZWaveIDS
from repro.analysis.triage import CrashTriage
from repro.core.fuzzer import FuzzerConfig, FuzzingEngine, psm_streams
from repro.core.fingerprint import fingerprint
from repro.core.discovery import discover_unknown_properties
from repro.core.mutation import PositionSensitiveMutator, prioritize_static
from repro.simulator.host import HostState
from repro.simulator.inclusion import InclusionCeremony, JoiningDevice
from repro.simulator.testbed import LOCK_NODE_ID, SWITCH_NODE_ID, build_sut
from repro.zwave.constants import Region, TransportMode
from repro.zwave.nif import BasicDeviceClass, GenericDeviceClass, NodeInfo
from repro.zwave.registry import load_full_registry


def node_list(controller):
    """The PC program's node list: the controller itself and every paired node."""
    return sorted({controller.node_id, *controller.nvm.node_ids()})


@pytest.fixture(scope="module")
def story():
    """Run the whole scenario once; the tests assert its chapters."""
    sut = build_sut("D1", seed=77)
    chapters = {}

    # Chapter 1: commission a third device over S2.
    sensor = JoiningDevice(
        "hall sensor",
        NodeInfo(
            basic=BasicDeviceClass.SLAVE,
            generic=GenericDeviceClass.SENSOR_BINARY,
            listed_cmdcls=(0x20, 0x30, 0x86),
        ),
        rng=random.Random(1),
    )
    sut.medium.attach("hall", (3.0, 3.0), Region.US, lambda r: None)
    ceremony = InclusionCeremony(sut.controller, sut.medium, sut.clock, random.Random(2))
    chapters["inclusion"] = ceremony.include(sensor, "hall", TransportMode.S2)

    # Chapter 2: the homeowner's PC program sees the grown network.
    chapters["node_list_before"] = node_list(sut.controller)

    # Chapter 3: train the IDS on an hour of benign operation.
    ids = ZWaveIDS(sut.profile.home_id)
    sut.dongle.clear_captures()
    sut.clock.advance(3600.0)
    ids.train(
        [(c.timestamp, c.frame) for c in sut.dongle.drain_captures() if c.frame]
    )
    chapters["ids"] = ids

    # Chapter 4: ZCover attacks — fingerprint, discover, fuzz 10 minutes.
    props = fingerprint(sut.dongle, sut.clock)
    props = discover_unknown_properties(sut.dongle, sut.clock, props)
    chapters["props"] = props
    engine = FuzzingEngine(sut, FuzzerConfig())
    mutator = PositionSensitiveMutator(load_full_registry(), random.Random(3))
    queue = prioritize_static(load_full_registry(), props.all_cmdcls)
    chapters["fuzz"] = engine.run(psm_streams(queue, mutator, 60.0, True), 600.0)

    # Chapter 5: triage the bug log into verified findings.
    triage = CrashTriage("D1", seed=77, minimize=False)
    chapters["triaged"] = triage.triage(chapters["fuzz"].bug_log)

    # Chapter 6: after the dust settles the network still works.
    chapters["node_list_after"] = node_list(sut.controller)
    chapters["sut"] = sut
    return chapters


class TestStory:
    def test_inclusion_grew_the_network(self, story):
        assert story["inclusion"].node_id == 4
        assert story["node_list_before"] == [1, LOCK_NODE_ID, SWITCH_NODE_ID, 4]

    def test_discovery_found_the_hidden_classes(self, story):
        assert story["props"].proprietary == (0x01, 0x02)
        assert len(story["props"].all_cmdcls) == 45

    def test_fuzzing_found_bugs_in_ten_minutes(self, story):
        assert len(story["fuzz"].detections) >= 7

    def test_triage_confirms_real_vulnerabilities(self, story):
        bug_ids = {
            t.finding.match_table3().bug_id
            for t in story["triaged"]
            if t.finding.match_table3()
        }
        assert {5, 12} <= bug_ids  # the early CMDCL 0x01 findings
        assert all(t.stability == 1.0 for t in story["triaged"])

    def test_ids_flags_the_attack_traffic(self, story):
        from repro.zwave.frame import ZWaveFrame

        sut = story["sut"]
        attack = ZWaveFrame(
            home_id=sut.profile.home_id, src=0x0F, dst=1,
            payload=bytes([0x01, 0x0D, 0x02, 0x03]),
        )
        assert story["ids"].inspect(sut.clock.now, attack)

    def test_recovery_left_the_network_intact(self, story):
        # The engine's repair loop restored the node table after every
        # memory-tampering detection.
        assert story["node_list_after"] == story["node_list_before"]
        assert story["sut"].host.state is HostState.RUNNING
        assert not story["sut"].controller.hung
