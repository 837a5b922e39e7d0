"""Tests for the mesh-routing substrate."""

import pytest

from repro.errors import FrameError
from repro.simulator.routing import (
    MeshRepeater,
    RoutingHeader,
    make_routed_frame,
)
from repro.simulator.testbed import LOCK_NODE_ID, build_sut
from repro.zwave.frame import ZWaveFrame


class TestRoutingHeader:
    def test_encode_decode_roundtrip(self):
        header = RoutingHeader(repeaters=(5, 9), hop_index=1)
        decoded, inner = RoutingHeader.decode(header.encode() + b"\x20\x02")
        assert decoded == header
        assert inner == b"\x20\x02"

    def test_completion(self):
        header = RoutingHeader(repeaters=(5,))
        assert not header.complete
        assert header.current_repeater == 5
        advanced = header.advanced()
        assert advanced.complete
        assert advanced.current_repeater is None

    def test_limits(self):
        with pytest.raises(FrameError):
            RoutingHeader(repeaters=())
        with pytest.raises(FrameError):
            RoutingHeader(repeaters=(1, 2, 3, 4, 5))
        with pytest.raises(FrameError):
            RoutingHeader(repeaters=(0,))
        with pytest.raises(FrameError):
            RoutingHeader(repeaters=(5,), hop_index=2)

    def test_decode_rejects_garbage(self):
        with pytest.raises(FrameError):
            RoutingHeader.decode(b"\x80")
        with pytest.raises(FrameError):
            RoutingHeader.decode(b"\x80\x09\x05")  # count 9 > max
        with pytest.raises(FrameError):
            RoutingHeader.decode(b"\x80\x02\x05")  # truncated repeater list

    def test_unwrap_plain_frame(self):
        frame = ZWaveFrame(home_id=1, src=2, dst=1, payload=b"\x20\x02")
        decoded = ZWaveFrame.decode(frame.encode())
        assert not decoded.routed
        assert decoded.payload == b"\x20\x02"


class TestMeshRelay:
    def build(self, attacker_distance=120.0, repeater_distance=60.0):
        # Geometry: the direct attacker-controller link (120 m) is below
        # the sensitivity floor, but both mesh legs (60 m each) are viable
        # marginal links.
        sut = build_sut("D1", seed=3, traffic=False,
                        attacker_distance_m=attacker_distance)
        repeater = MeshRepeater(
            "repeater", sut.profile.home_id, 9, sut.clock, sut.medium,
            position=(repeater_distance, 0.0),
        )
        return sut, repeater

    def test_direct_injection_fails_out_of_range(self):
        sut, _ = self.build()
        frame = ZWaveFrame(
            home_id=sut.profile.home_id, src=0x0F, dst=1, payload=b"\x00"
        )
        sut.dongle.inject(frame)
        sut.clock.advance(0.5)
        assert sut.controller.stats.received == 0

    def test_routed_injection_reaches_controller(self):
        sut, repeater = self.build()
        frame = make_routed_frame(
            sut.profile.home_id, 0x0F, 1, route=(9,), payload=b"\x86\x11"
        )
        for _ in range(10):  # the attacker->repeater leg is marginal
            sut.dongle.inject(frame)
            sut.clock.advance(0.5)
            if repeater.frames_relayed:
                break
        sut.clock.advance(0.5)
        assert repeater.frames_relayed >= 1
        assert sut.controller.stats.apl_processed >= 1

    def test_memory_attack_through_the_mesh(self):
        sut, repeater = self.build()
        attack = make_routed_frame(
            sut.profile.home_id, 0x0F, 1, route=(9,),
            payload=bytes([0x01, 0x0D, LOCK_NODE_ID, 0x03]),
        )
        for _ in range(20):
            sut.dongle.inject(attack)
            sut.clock.advance(0.5)
            if LOCK_NODE_ID not in sut.controller.nvm:
                break
        assert LOCK_NODE_ID not in sut.controller.nvm

    def test_repeater_ignores_foreign_home(self):
        sut, repeater = self.build(attacker_distance=30.0, repeater_distance=25.0)
        frame = make_routed_frame(0xDEADBEEF, 0x0F, 1, route=(9,), payload=b"\x00")
        sut.dongle.inject(frame)
        sut.clock.advance(0.5)
        assert repeater.frames_relayed == 0

    def test_repeater_ignores_other_hops(self):
        sut, repeater = self.build(attacker_distance=30.0, repeater_distance=25.0)
        frame = make_routed_frame(
            sut.profile.home_id, 0x0F, 1, route=(7,), payload=b"\x00"
        )
        sut.dongle.inject(frame)
        sut.clock.advance(0.5)
        assert repeater.frames_relayed == 0

    def test_controller_ignores_unfinished_routes(self):
        sut, _ = self.build(attacker_distance=30.0, repeater_distance=25.0)
        # Hop index 0 of a two-repeater route: not the controller's yet.
        frame = make_routed_frame(
            sut.profile.home_id, 0x0F, 1, route=(7, 9), payload=b"\x86\x11"
        )
        sut.dongle.inject(frame)
        sut.clock.advance(0.5)
        assert sut.controller.stats.apl_processed == 0

    def test_completed_route_processes_inner_payload(self):
        sut, repeater = self.build(attacker_distance=30.0, repeater_distance=25.0)
        frame = make_routed_frame(
            sut.profile.home_id, 0x0F, 1, route=(9,), payload=b"\x86\x11"
        )
        sut.dongle.clear_captures()
        sut.dongle.inject(frame)
        sut.clock.advance(1.0)
        replies = [
            c.frame.payload
            for c in sut.dongle.captures()
            if c.frame and c.frame.src == 1 and c.frame.payload
        ]
        assert any(p[:2] == b"\x86\x12" for p in replies)  # VERSION_REPORT
