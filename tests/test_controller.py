"""Tests for the virtual controller firmware."""


from repro.simulator.host import HostState
from repro.simulator.memory import NodeTable
from repro.simulator.testbed import LOCK_NODE_ID, SWITCH_NODE_ID, build_sut, supported_cmdcls
from repro.zwave.application import ApplicationPayload
from repro.zwave.checksum import cs8
from repro.zwave.frame import ZWaveFrame, make_nop
from repro.zwave.nif import BasicDeviceClass, encode_nif_request, parse_nif_report


def inject(sut, payload, src=0x0F, dst=None, settle=0.1, **frame_kwargs):
    frame = ZWaveFrame(
        home_id=sut.profile.home_id,
        src=src,
        dst=dst if dst is not None else sut.controller.node_id,
        payload=payload,
        **frame_kwargs,
    )
    sut.dongle.clear_captures()
    sut.dongle.inject(frame)
    sut.clock.advance(settle)
    return sut.dongle.captures()


class TestMacLayer:
    def test_acks_valid_singlecast(self, quiet_sut):
        captures = inject(quiet_sut, b"\x00")
        acks = [c for c in captures if c.frame and c.frame.is_ack]
        assert len(acks) == 1
        assert acks[0].frame.src == quiet_sut.controller.node_id

    def test_ignores_foreign_home_id(self, quiet_sut):
        frame = ZWaveFrame(home_id=0xDEADBEEF, src=0x0F, dst=1, payload=b"\x00")
        quiet_sut.dongle.clear_captures()
        quiet_sut.dongle.inject(frame)
        quiet_sut.clock.advance(0.1)
        assert quiet_sut.controller.stats.rejected_home_id == 1
        assert not [c for c in quiet_sut.dongle.captures() if c.frame and c.frame.is_ack]

    def test_ignores_other_destination(self, quiet_sut):
        inject(quiet_sut, b"\x00", dst=42)
        assert quiet_sut.controller.stats.rejected_dst >= 1

    def test_drops_bad_checksum(self, quiet_sut):
        raw = bytearray(make_nop(quiet_sut.profile.home_id, 0x0F, 1).encode())
        raw[-1] ^= 0x01
        quiet_sut.dongle.inject_raw(bytes(raw))
        quiet_sut.clock.advance(0.1)
        assert quiet_sut.controller.stats.rejected_checksum == 1

    def test_no_ack_when_not_requested(self, quiet_sut):
        captures = inject(quiet_sut, b"\x00", ack_request=False)
        assert not [c for c in captures if c.frame and c.frame.is_ack]

    def test_broadcast_not_acked(self, quiet_sut):
        captures = inject(quiet_sut, b"\x00", dst=0xFF)
        assert not [c for c in captures if c.frame and c.frame.is_ack]

    def test_powered_off_is_silent(self, quiet_sut):
        quiet_sut.controller.set_power(False)
        captures = inject(quiet_sut, b"\x00")
        assert captures == []
        quiet_sut.controller.set_power(True)
        captures = inject(quiet_sut, b"\x00")
        assert [c for c in captures if c.frame and c.frame.is_ack]


class TestNif:
    def test_nif_report_lists_advertised_classes(self, quiet_sut):
        captures = inject(quiet_sut, encode_nif_request().encode(), settle=0.3)
        reports = [
            parse_nif_report(ApplicationPayload.decode(c.frame.payload))
            for c in captures
            if c.frame and c.frame.payload and not c.frame.is_ack
        ]
        reports = [r for r in reports if r is not None]
        assert len(reports) == 1
        info = reports[0]
        assert info.basic in (BasicDeviceClass.CONTROLLER, BasicDeviceClass.STATIC_CONTROLLER)
        assert info.listed_cmdcls == tuple(sorted(quiet_sut.profile.listed_cmdcls))
        assert len(info.listed_cmdcls) == 17  # D1 lists 17 (Table IV)

    def test_listed_is_strict_subset_of_supported(self, quiet_sut):
        listed = set(quiet_sut.profile.listed_cmdcls)
        supported = set(supported_cmdcls())
        assert listed < supported
        assert len(supported) == 45

    def test_proprietary_classes_not_listed(self, quiet_sut):
        assert 0x01 not in quiet_sut.profile.listed_cmdcls
        assert 0x01 in supported_cmdcls()


class TestApplicationResponses:
    def test_get_earns_report(self, quiet_sut):
        # VERSION_GET should earn a VERSION_REPORT.
        captures = inject(quiet_sut, b"\x86\x11", settle=0.3)
        payloads = [
            c.frame.payload
            for c in captures
            if c.frame and not c.frame.is_ack and c.frame.payload
        ]
        assert any(p[0] == 0x86 and p[1] == 0x12 for p in payloads)

    def test_supported_non_get_earns_busy(self, quiet_sut):
        # An unencapsulated supported class probe (no command handler).
        captures = inject(quiet_sut, b"\x85", settle=0.3)
        payloads = [
            c.frame.payload
            for c in captures
            if c.frame and not c.frame.is_ack and c.frame.payload
        ]
        assert any(p[0] == 0x22 for p in payloads)

    def test_unsupported_class_is_silent(self, quiet_sut):
        captures = inject(quiet_sut, b"\x31\x04", settle=0.3)  # sensor class
        payloads = [
            c.frame.payload
            for c in captures
            if c.frame and not c.frame.is_ack and c.frame.payload
        ]
        assert payloads == []
        assert quiet_sut.controller.stats.apl_ignored_unsupported >= 1

    def test_nop_only_acked(self, quiet_sut):
        captures = inject(quiet_sut, b"\x00", settle=0.3)
        non_ack = [c for c in captures if c.frame and not c.frame.is_ack]
        assert non_ack == []


class TestZeroDayEffects:
    def test_hang_blocks_processing_until_expiry(self, quiet_sut):
        inject(quiet_sut, bytes([0x5A, 0x01]))  # bug 7: 68 s hang
        assert quiet_sut.controller.hung
        captures = inject(quiet_sut, b"\x00")
        assert not [c for c in captures if c.frame and c.frame.is_ack]
        quiet_sut.clock.advance(70.0)
        assert not quiet_sut.controller.hung
        captures = inject(quiet_sut, b"\x00")
        assert [c for c in captures if c.frame and c.frame.is_ack]

    def test_power_cycle_clears_hang(self, quiet_sut):
        inject(quiet_sut, bytes([0x5A, 0x01]))
        quiet_sut.controller.power_cycle()
        assert not quiet_sut.controller.hung

    def test_memory_modify_degrades_lock_record(self, quiet_sut):
        before = quiet_sut.controller.nvm.snapshot()
        inject(quiet_sut, bytes([0x01, 0x0D, LOCK_NODE_ID, 0x01, 0x00, 0x10]))
        changes = NodeTable.diff(before, quiet_sut.controller.nvm.snapshot())
        assert [c.kind for c in changes] == ["modified"]
        record = quiet_sut.controller.nvm.get(LOCK_NODE_ID)
        assert record.basic == 0x04  # routing slave, Figure 8
        assert not record.secure

    def test_memory_insert_adds_rogue_controller(self, quiet_sut):
        inject(quiet_sut, bytes([0x01, 0x0D, 200, 0x02]))
        rogue = quiet_sut.controller.nvm.get(200)
        assert rogue is not None
        assert rogue.is_controller  # Figure 9

    def test_memory_insert_with_clashing_id_picks_free_slot(self, quiet_sut):
        inject(quiet_sut, bytes([0x01, 0x0D, LOCK_NODE_ID, 0x02]))
        assert len(quiet_sut.controller.nvm) == 3

    def test_memory_remove_deletes_lock(self, quiet_sut):
        inject(quiet_sut, bytes([0x01, 0x0D, LOCK_NODE_ID, 0x03]))
        assert LOCK_NODE_ID not in quiet_sut.controller.nvm  # Figure 10

    def test_memory_remove_unknown_id_hits_first_slot(self, quiet_sut):
        inject(quiet_sut, bytes([0x01, 0x0D, 0x77, 0x03]))
        assert LOCK_NODE_ID not in quiet_sut.controller.nvm

    def test_memory_overwrite_replaces_database(self, quiet_sut):
        inject(quiet_sut, bytes([0x01, 0x0D, 0x01, 0x04, 0x00, 0x10]))
        ids = quiet_sut.controller.nvm.node_ids()
        assert LOCK_NODE_ID not in ids and SWITCH_NODE_ID not in ids
        assert ids == (10, 20, 30, 200)  # Figure 11

    def test_wakeup_clear(self, quiet_sut):
        assert quiet_sut.controller.nvm.get(LOCK_NODE_ID).wakeup_interval == 3600
        inject(quiet_sut, bytes([0x01, 0x0D, LOCK_NODE_ID, 0x00]))
        assert quiet_sut.controller.nvm.get(LOCK_NODE_ID).wakeup_interval is None

    def test_host_crash_bug6(self, quiet_sut):
        inject(quiet_sut, bytes([0x9F, 0x01]))
        assert quiet_sut.host.state is HostState.CRASHED

    def test_host_dos_bug5(self, quiet_sut):
        inject(quiet_sut, bytes([0x01, 0x02]))
        assert quiet_sut.host.state is HostState.DENIED

    def test_hub_profile_lacks_pc_program_bugs(self):
        hub = build_sut("D6", seed=3, traffic=False)
        frame = ZWaveFrame(
            home_id=hub.profile.home_id, src=0x0F, dst=1, payload=bytes([0x9F, 0x01])
        )
        hub.dongle.inject(frame)
        hub.clock.advance(0.1)
        assert hub.host.state is HostState.RUNNING  # bug 6 is D1-D5 only

    def test_events_record_bug_ids(self, quiet_sut):
        inject(quiet_sut, bytes([0x5A, 0x01]))
        events = quiet_sut.controller.events()
        assert events[-1].bug_id == 7


class TestMacQuirkBehaviour:
    def test_d1_len_overrun_hangs(self):
        sut = build_sut("D1", seed=2, traffic=False)
        raw = bytearray(make_nop(sut.profile.home_id, 0x0F, 1).encode())
        raw[7] = 0xFF
        raw[-1] = cs8(raw[:-1])
        sut.dongle.inject_raw(bytes(raw))
        sut.clock.advance(0.1)
        assert sut.controller.hung
        assert sut.controller.events()[-1].quirk_id == "LEN-OVERRUN"

    def test_d3_has_no_quirks(self):
        sut = build_sut("D3", seed=2, traffic=False)
        raw = bytearray(make_nop(sut.profile.home_id, 0x0F, 1).encode())
        raw[7] = 0xFF
        raw[-1] = cs8(raw[:-1])
        sut.dongle.inject_raw(bytes(raw))
        sut.clock.advance(0.1)
        assert not sut.controller.hung


class TestPolling:
    def test_polling_generates_traffic(self, sut):
        sut.dongle.clear_captures()
        sut.clock.advance(120.0)
        assert len(sut.dongle.captures()) > 5

    def test_poll_stops_for_removed_node(self, sut):
        sut.controller.nvm.raw_delete(LOCK_NODE_ID)
        sut.controller.nvm.raw_delete(SWITCH_NODE_ID)
        sut.dongle.clear_captures()
        sut.clock.advance(120.0)
        polls = [
            c
            for c in sut.dongle.captures()
            if c.frame
            and c.frame.src == 1
            and not c.frame.is_ack
            # Transport-level replies (S2 nonce reports) are not polls.
            and c.frame.payload
            and c.frame.payload[0] != 0x9F
        ]
        assert polls == []
