"""Tests for the oracles (liveness/memory/host) and the bug log."""

import pytest

from repro.core.buglog import BugLog, BugRecord
from repro.core.monitor import (
    LivenessMonitor,
    ObservedKind,
    SutObserver,
    classify_memory_changes,
)
from repro.simulator.memory import NodeRecord, NodeTable
from repro.simulator.testbed import LOCK_NODE_ID
from repro.zwave.frame import ZWaveFrame


def monitor_for(sut, timeout=0.5):
    return LivenessMonitor(sut.dongle, sut.clock, sut.controller, timeout)


def attack(sut, payload):
    frame = ZWaveFrame(
        home_id=sut.profile.home_id, src=0x0F, dst=1, payload=payload
    )
    sut.dongle.inject(frame)
    sut.clock.advance(0.05)


class TestLivenessMonitor:
    def test_ping_healthy_controller(self, quiet_sut):
        monitor = monitor_for(quiet_sut)
        assert monitor.ping()
        assert monitor.pings_sent == 1
        assert monitor.pings_lost == 0

    def test_ping_hung_controller(self, quiet_sut):
        attack(quiet_sut, bytes([0x5A, 0x01]))
        monitor = monitor_for(quiet_sut)
        assert not monitor.ping()
        assert monitor.pings_lost == 1

    def test_ping_powered_off_controller(self, quiet_sut):
        quiet_sut.controller.set_power(False)
        assert not monitor_for(quiet_sut).ping()

    def test_ping_until_responsive_measures_hang(self, quiet_sut):
        attack(quiet_sut, bytes([0x86, 0x13, 0x00]))  # bug 10: 4 s hang
        monitor = monitor_for(quiet_sut)
        recovery = monitor.ping_until_responsive(max_wait=30.0)
        assert recovery is not None
        assert 3.0 <= recovery <= 6.5

    def test_ping_until_responsive_gives_up(self, quiet_sut):
        quiet_sut.controller.set_power(False)
        monitor = monitor_for(quiet_sut)
        assert monitor.ping_until_responsive(max_wait=5.0) is None


class TestMemoryClassification:
    def rec(self, node_id=2, **kw):
        return NodeRecord(node_id=node_id, **kw)

    def diff(self, before, after):
        return NodeTable.diff(tuple(before), tuple(after))

    def test_empty_diff_is_none(self):
        assert classify_memory_changes([]) is None

    def test_insert(self):
        changes = self.diff([], [self.rec(10)])
        assert classify_memory_changes(changes) is ObservedKind.MEMORY_INSERT

    def test_remove(self):
        changes = self.diff([self.rec(2)], [])
        assert classify_memory_changes(changes) is ObservedKind.MEMORY_REMOVE

    def test_overwrite(self):
        changes = self.diff([self.rec(2)], [self.rec(10), self.rec(20)])
        assert classify_memory_changes(changes) is ObservedKind.MEMORY_OVERWRITE

    def test_modify(self):
        changes = self.diff([self.rec(2, basic=3)], [self.rec(2, basic=4)])
        assert classify_memory_changes(changes) is ObservedKind.MEMORY_MODIFY

    def test_wakeup_clear(self):
        changes = self.diff(
            [self.rec(2, wakeup_interval=3600)], [self.rec(2, wakeup_interval=None)]
        )
        assert classify_memory_changes(changes) is ObservedKind.MEMORY_WAKEUP_CLEAR

    def test_wakeup_plus_other_field_is_modify(self):
        changes = self.diff(
            [self.rec(2, wakeup_interval=3600, basic=3)],
            [self.rec(2, wakeup_interval=None, basic=4)],
        )
        assert classify_memory_changes(changes) is ObservedKind.MEMORY_MODIFY


class TestSutObserver:
    def test_detects_memory_tampering(self, quiet_sut):
        observer = SutObserver(quiet_sut)
        attack(quiet_sut, bytes([0x01, 0x0D, LOCK_NODE_ID, 0x03]))
        kind, changes = observer.check_memory()
        assert kind is ObservedKind.MEMORY_REMOVE
        assert changes

    def test_restore_memory(self, quiet_sut):
        observer = SutObserver(quiet_sut)
        attack(quiet_sut, bytes([0x01, 0x0D, LOCK_NODE_ID, 0x03]))
        observer.restore_memory()
        kind, _ = observer.check_memory()
        assert kind is None
        assert LOCK_NODE_ID in quiet_sut.controller.nvm

    def test_detects_host_states(self, quiet_sut):
        observer = SutObserver(quiet_sut)
        assert observer.check_host() is None
        attack(quiet_sut, bytes([0x9F, 0x01]))
        assert observer.check_host() is ObservedKind.HOST_CRASH
        observer.restart_host()
        assert observer.check_host() is None

    def test_power_cycle_advances_clock(self, quiet_sut):
        observer = SutObserver(quiet_sut, recovery_time=2.0)
        attack(quiet_sut, bytes([0x5A, 0x01]))
        before = quiet_sut.clock.now
        observer.power_cycle()
        assert quiet_sut.clock.now == pytest.approx(before + 2.0)
        assert not quiet_sut.controller.hung


class TestBugLog:
    def make_record(self, i=0, payload=b"\x5a\x01"):
        return BugRecord.from_payload(
            timestamp=1.5 + i, packet_no=10 + i, payload=payload,
            observed=ObservedKind.HANG,
        )

    def test_from_payload_fields(self):
        record = self.make_record()
        assert record.cmdcl == 0x5A
        assert record.cmd == 0x01
        assert record.payload == b"\x5a\x01"
        assert record.observed == ObservedKind.HANG.value

    def test_short_payload_fields(self):
        record = BugRecord.from_payload(0.0, 1, b"\x5a", ObservedKind.HANG)
        assert record.cmd is None

    def test_coarse_groups_dedup(self):
        log = BugLog()
        for i in range(5):
            log.add(self.make_record(i))
        log.add(self.make_record(9, payload=b"\x59\x03\x00\x01"))
        assert len(log.records()) == 6
        assert len(log.coarse_groups()) == 2

    def test_first_record(self):
        log = BugLog()
        for i in range(3):
            log.add(self.make_record(i))
        first = log.first_record(0x5A, 0x01, "hang")
        assert first.packet_no == 10
        assert log.first_record(0x20, 0x01, "hang") is None

    def test_save_load_roundtrip(self, tmp_path):
        log = BugLog()
        log.add(self.make_record(0))
        log.add(self.make_record(1, payload=b"\x01\x0d\x02\x03"))
        path = tmp_path / "bugs.jsonl"
        log.save(path)
        loaded = BugLog.load(path)
        assert loaded.records() == log.records()

    def test_load_skips_blank_lines(self, tmp_path):
        path = tmp_path / "bugs.jsonl"
        log = BugLog([self.make_record()])
        log.save(path)
        path.write_text(path.read_text() + "\n\n")
        assert len(BugLog.load(path).records()) == 1
