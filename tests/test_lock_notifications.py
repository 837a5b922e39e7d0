"""Tests for the lock's access-control notifications (class 0x71)."""


from repro.simulator.testbed import LOCK_NODE_ID
from repro.zwave.application import ApplicationPayload


def host_events(sut):
    return [e.detail for e in sut.host.events() if e.kind == "notify"]


class TestManualOperation:
    def test_manual_unlock_notifies_the_hub(self, quiet_sut):
        quiet_sut.lock.operate_manually(locked=False)
        quiet_sut.clock.advance(1.0)
        assert not quiet_sut.lock.locked
        assert quiet_sut.controller.s2_messaging.stats.received_encapsulated >= 1
        assert any("NOTIFICATION" in detail for detail in host_events(quiet_sut))

    def test_no_event_without_state_change(self, quiet_sut):
        quiet_sut.lock.operate_manually(locked=True)  # already locked
        quiet_sut.clock.advance(1.0)
        assert host_events(quiet_sut) == []

    def test_relock_after_unlock(self, quiet_sut):
        quiet_sut.lock.operate_manually(locked=False)
        quiet_sut.clock.advance(1.0)
        quiet_sut.lock.operate_manually(locked=True)
        quiet_sut.clock.advance(1.0)
        assert quiet_sut.lock.locked
        notifications = [d for d in host_events(quiet_sut) if "NOTIFICATION" in d]
        assert len(notifications) == 2


class TestRemoteOperation:
    def test_remote_unlock_emits_notification(self, quiet_sut):
        quiet_sut.controller.s2_messaging.send_secure(
            LOCK_NODE_ID, ApplicationPayload(0x62, 0x01, b"\x00")
        )
        quiet_sut.clock.advance(2.0)
        assert not quiet_sut.lock.locked
        assert any("NOTIFICATION" in detail for detail in host_events(quiet_sut))

    def test_notification_travels_encapsulated(self, quiet_sut):
        quiet_sut.dongle.clear_captures()
        quiet_sut.lock.operate_manually(locked=False)
        quiet_sut.clock.advance(1.0)
        plaintext_notifications = [
            c.frame
            for c in quiet_sut.dongle.captures()
            if c.frame and c.frame.payload and c.frame.payload[0] == 0x71
        ]
        assert plaintext_notifications == []  # the sniffer sees only S2
