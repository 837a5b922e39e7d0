"""Tests for slave devices, host programs and testbed construction."""

import pytest

from repro.errors import SimulatorError
from repro.simulator.host import HostKind, HostProgram, HostState
from repro.simulator.testbed import (
    CONTROLLER_IDS,
    LISTED_15,
    LISTED_17,
    LOCK_NODE_ID,
    PROFILES,
    SWITCH_NODE_ID,
    build_sut,
    supported_cmdcls,
)
from repro.zwave.application import ApplicationPayload
from repro.zwave.frame import ZWaveFrame
from repro.zwave.nif import encode_nif_request, parse_nif_report


def send_to(sut, node_id, payload, src=1):
    frame = ZWaveFrame(
        home_id=sut.profile.home_id, src=src, dst=node_id, payload=payload
    )
    sut.dongle.clear_captures()
    sut.dongle.inject(frame)
    sut.clock.advance(0.2)
    return [
        c.frame
        for c in sut.dongle.captures()
        if c.frame and not c.frame.is_ack and c.frame.payload
    ]


class TestSwitch:
    def test_starts_off(self, quiet_sut):
        assert not quiet_sut.switch.on

    def test_set_turns_on(self, quiet_sut):
        send_to(quiet_sut, SWITCH_NODE_ID, b"\x25\x01\xff")
        assert quiet_sut.switch.on
        send_to(quiet_sut, SWITCH_NODE_ID, b"\x25\x01\x00")
        assert not quiet_sut.switch.on

    def test_get_reports_state(self, quiet_sut):
        quiet_sut.switch.on = True
        replies = send_to(quiet_sut, SWITCH_NODE_ID, b"\x25\x02")
        assert any(f.payload == b"\x25\x03\xff" for f in replies)

    def test_basic_set_aliases_switch(self, quiet_sut):
        send_to(quiet_sut, SWITCH_NODE_ID, b"\x20\x01\xff")
        assert quiet_sut.switch.on

    def test_answers_nif(self, quiet_sut):
        replies = send_to(quiet_sut, SWITCH_NODE_ID, encode_nif_request().encode())
        infos = [
            parse_nif_report(ApplicationPayload.decode(f.payload)) for f in replies
        ]
        infos = [i for i in infos if i]
        assert len(infos) == 1
        assert not infos[0].is_controller
        assert 0x25 in infos[0].listed_cmdcls

    def test_ignores_foreign_home(self, quiet_sut):
        frame = ZWaveFrame(home_id=0x12345678, src=1, dst=SWITCH_NODE_ID, payload=b"\x25\x01\xff")
        quiet_sut.dongle.inject(frame)
        quiet_sut.clock.advance(0.1)
        assert not quiet_sut.switch.on


class TestDoorLock:
    def test_starts_locked(self, quiet_sut):
        assert quiet_sut.lock.locked

    def test_operation_set_unlocks(self, quiet_sut):
        replies = send_to(quiet_sut, LOCK_NODE_ID, b"\x62\x01\x00")
        assert not quiet_sut.lock.locked
        assert any(f.payload[0] == 0x62 and f.payload[1] == 0x03 for f in replies)

    def test_operation_get(self, quiet_sut):
        replies = send_to(quiet_sut, LOCK_NODE_ID, b"\x62\x02")
        assert any(f.payload == b"\x62\x03\xff\x00" for f in replies)

    def test_lists_s2_in_nif(self, quiet_sut):
        replies = send_to(quiet_sut, LOCK_NODE_ID, encode_nif_request().encode())
        infos = [parse_nif_report(ApplicationPayload.decode(f.payload)) for f in replies]
        infos = [i for i in infos if i]
        assert 0x9F in infos[0].listed_cmdcls

    def test_unsolicited_reports_flow_s2_encapsulated(self, sut):
        """The lock's status reports travel as S2 encapsulations: the
        sniffer sees 0x9F frames, never a plaintext 0x62 report."""
        sut.dongle.clear_captures()
        sut.clock.advance(100.0)
        from_lock = [
            c.frame
            for c in sut.dongle.captures()
            if c.frame and c.frame.src == LOCK_NODE_ID and c.frame.payload
        ]
        assert any(f.payload[0] == 0x9F for f in from_lock)
        assert not any(f.payload[0] == 0x62 for f in from_lock)
        # ...and the controller actually decrypted at least one of them.
        assert sut.controller.s2_messaging.stats.received_encapsulated > 0


class TestHostProgram:
    def test_starts_running(self):
        host = HostProgram(HostKind.PC_CONTROLLER)
        assert host.state is HostState.RUNNING
        assert host.responsive

    def test_crash_and_restart(self):
        host = HostProgram(HostKind.PC_CONTROLLER)
        host.crash(10.0, "bug #06")
        assert host.state is HostState.CRASHED
        assert host.crash_count == 1
        host.restart(12.0)
        assert host.responsive

    def test_dos_and_restart(self):
        host = HostProgram(HostKind.SMARTPHONE_APP)
        host.deny_service(5.0)
        assert host.state is HostState.DENIED
        assert not host.responsive
        host.restart()
        assert host.responsive

    def test_dos_does_not_downgrade_crash(self):
        host = HostProgram(HostKind.PC_CONTROLLER)
        host.crash(1.0)
        host.deny_service(2.0)
        assert host.state is HostState.CRASHED

    def test_event_log(self):
        host = HostProgram(HostKind.PC_CONTROLLER)
        host.notify(1.0, "lock reported")
        host.crash(2.0)
        kinds = [e.kind for e in host.events()]
        assert kinds == ["notify", "crash"]


class TestTestbed:
    def test_table2_inventory(self):
        assert len(PROFILES) == 9
        assert len(CONTROLLER_IDS) == 7
        assert PROFILES["D8"].device_type == "Door Lock"
        assert PROFILES["D9"].device_type == "Smart Switch"
        assert not PROFILES["D9"].encryption

    def test_table4_home_ids(self):
        expected = {
            "D1": 0xE7DE3F3D, "D2": 0xCD007171, "D3": 0xCB51722D,
            "D4": 0xC7E9DD54, "D5": 0xF4C3754D, "D6": 0xCB95A34A,
            "D7": 0xEDC87EE4,
        }
        for device, home_id in expected.items():
            assert PROFILES[device].home_id == home_id

    def test_listed_class_counts(self):
        assert len(LISTED_17) == 17
        assert len(LISTED_15) == 15
        for device in ("D1", "D2", "D4", "D6"):
            assert len(PROFILES[device].listed_cmdcls) == 17
        for device in ("D3", "D5", "D7"):
            assert len(PROFILES[device].listed_cmdcls) == 15

    def test_supported_is_45(self):
        assert len(supported_cmdcls()) == 45
        assert 0x01 in supported_cmdcls()
        assert 0x02 in supported_cmdcls()

    def test_bug_class_cmdcls_are_listed(self):
        # The β ablation needs 0x59/0x5A/0x73/0x7A/0x86/0x9F listed.
        for cmdcl in (0x59, 0x5A, 0x73, 0x7A, 0x86, 0x9F):
            assert cmdcl in LISTED_15

    def test_build_sut_rejects_slaves(self):
        with pytest.raises(SimulatorError):
            build_sut("D8")
        with pytest.raises(SimulatorError):
            build_sut("D99")

    def test_sut_pairs_two_slaves(self, quiet_sut):
        assert quiet_sut.controller.nvm.node_ids() == (LOCK_NODE_ID, SWITCH_NODE_ID)
        lock = quiet_sut.controller.nvm.get(LOCK_NODE_ID)
        assert lock.secure
        assert lock.wakeup_interval == 3600

    def test_hosts_match_device_kind(self):
        assert build_sut("D1", traffic=False).host.kind is HostKind.PC_CONTROLLER
        assert build_sut("D6", traffic=False).host.kind is HostKind.SMARTPHONE_APP

    def test_d1_to_d5_expose_all_fifteen_bugs(self):
        for device in ("D1", "D2", "D3", "D4", "D5"):
            assert len(PROFILES[device].zero_day_ids) == 15

    def test_hubs_lack_pc_program_bugs(self):
        for device in ("D6", "D7"):
            ids = set(PROFILES[device].zero_day_ids)
            assert 6 not in ids and 13 not in ids
            assert len(ids) == 13

    def test_deterministic_construction(self):
        one = build_sut("D1", seed=5, traffic=False)
        two = build_sut("D1", seed=5, traffic=False)
        assert one.golden_snapshot() == two.golden_snapshot()

    def test_attacker_distance_configurable(self):
        sut = build_sut("D1", seed=1, attacker_distance_m=70.0, traffic=False)
        assert sut.dongle.position == (70.0, 0.0)
