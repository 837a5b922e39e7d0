"""Tests for multi-network coexistence on one shared medium."""

from repro.simulator.controller import VirtualController
from repro.simulator.testbed import build_sut, supported_cmdcls
from repro.zwave.frame import ZWaveFrame


class TestCoexistence:
    """Two homes share the air; their networks must not bleed."""

    def build_pair(self):
        sut = build_sut("D1", seed=34, traffic=False)
        neighbour = VirtualController(
            name="neighbour-hub",
            home_id=0x0BADCAFE,
            clock=sut.clock,
            medium=sut.medium,
            listed_cmdcls=sut.profile.listed_cmdcls,
            supported_cmdcls=supported_cmdcls(),
            position=(12.0, 0.0),
            node_id=1,
        )
        return sut, neighbour

    def test_frames_filtered_by_home_id(self):
        sut, neighbour = self.build_pair()
        frame = ZWaveFrame(
            home_id=sut.profile.home_id, src=0x0F, dst=1, payload=b"\x86\x11"
        )
        sut.dongle.inject(frame)
        sut.clock.advance(0.2)
        assert sut.controller.stats.apl_processed == 1
        assert neighbour.stats.apl_processed == 0
        # The neighbour hears the attack, the ACK and the reply — all
        # rejected by its home-id filter.
        assert neighbour.stats.rejected_home_id >= 1

    def test_attack_on_one_home_spares_the_other(self):
        sut, neighbour = self.build_pair()
        neighbour.nvm.add(
            __import__("repro.simulator.memory", fromlist=["NodeRecord"]).NodeRecord(
                node_id=2, name="neighbour lock"
            )
        )
        attack = ZWaveFrame(
            home_id=sut.profile.home_id, src=0x0F, dst=1,
            payload=bytes([0x01, 0x0D, 0x02, 0x03]),
        )
        sut.dongle.inject(attack)
        sut.clock.advance(0.2)
        assert 2 not in sut.controller.nvm  # victim's lock removed
        assert 2 in neighbour.nvm  # neighbour untouched

    def test_passive_scan_elects_the_busier_network(self):
        from repro.core.fingerprint import PassiveScanner

        sut, neighbour = self.build_pair()
        # Only the victim network generates traffic.
        sut.controller.start_polling([2, 3], interval=20.0)
        result = PassiveScanner(sut.dongle, sut.clock).scan(120.0)
        assert result.home_id == sut.profile.home_id
