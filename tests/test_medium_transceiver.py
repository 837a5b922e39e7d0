"""Tests for the RF medium and the virtual transceiver."""

import random
from types import SimpleNamespace

import pytest

from repro.errors import RadioError, TransceiverError
from repro.radio.clock import SimClock
from repro.radio.medium import (
    PERFECT_LINK_DBM,
    RadioMedium,
    SENSITIVITY_DBM,
    loss_probability,
    received_power_dbm,
)
from repro.radio.signal import airtime_seconds
from repro.radio.transceiver import Transceiver
from repro.zwave import constants as const
from repro.zwave.constants import Region
from repro.zwave.frame import ZWaveFrame, make_nop

HOME = 0xCB95A34A


def frame(payload=b"\x20\x02"):
    return ZWaveFrame(home_id=HOME, src=2, dst=1, payload=payload)


class TestPropagationModel:
    def test_power_decreases_with_distance(self):
        assert received_power_dbm(1.0) > received_power_dbm(10.0) > received_power_dbm(70.0)

    def test_loss_zero_on_strong_links(self):
        assert loss_probability(PERFECT_LINK_DBM) == 0.0
        assert loss_probability(-40.0) == 0.0

    def test_loss_total_below_sensitivity(self):
        assert loss_probability(SENSITIVITY_DBM) == 1.0
        assert loss_probability(-120.0) == 1.0

    def test_loss_monotonic_in_between(self):
        mid = (PERFECT_LINK_DBM + SENSITIVITY_DBM) / 2
        assert 0.0 < loss_probability(mid) < 1.0

    def test_attack_range_70m_is_marginal_but_alive(self):
        # The paper's attacker operates from 10-70 metres.
        rssi = received_power_dbm(70.0)
        assert SENSITIVITY_DBM < rssi
        assert loss_probability(rssi) < 1.0


class TestMedium:
    def setup_method(self):
        self.clock = SimClock()
        self.medium = RadioMedium(self.clock, random.Random(3))
        self.received = []

    def attach(self, name="rx", position=(5.0, 0.0), region=Region.US):
        self.medium.attach(name, position, region, self.received.append)

    def test_delivery_after_airtime(self):
        self.attach()
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        airtime = self.medium.transmit("tx", frame().encode(), 100.0)
        assert self.received == []
        self.clock.advance(airtime + 0.001)
        assert len(self.received) == 1
        assert self.received[0].raw == frame().encode()

    def test_sender_does_not_hear_itself(self):
        self.attach("only")
        self.medium.attach("tx", (0.0, 0.0), Region.US, self.received.append)
        self.medium.transmit("tx", frame().encode(), 100.0)
        self.clock.advance(1.0)
        assert len(self.received) == 1  # only the other endpoint

    def test_region_mismatch_blocks_delivery(self):
        self.attach(region=Region.EU)
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.transmit("tx", frame().encode(), 100.0)
        self.clock.advance(1.0)
        assert self.received == []

    def test_out_of_range_blocks_delivery(self):
        self.attach(position=(100000.0, 0.0))
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.transmit("tx", frame().encode(), 100.0)
        self.clock.advance(1.0)
        assert self.received == []
        assert self.medium.stats["losses"] == 1

    def test_disabled_endpoint_misses_frames(self):
        self.attach()
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.set_enabled("rx", False)
        self.medium.transmit("tx", frame().encode(), 100.0)
        self.clock.advance(1.0)
        assert self.received == []

    def test_duplicate_attach_rejected(self):
        self.attach()
        with pytest.raises(RadioError):
            self.attach()

    def test_unknown_transmitter_rejected(self):
        with pytest.raises(RadioError):
            self.medium.transmit("ghost", b"\x00" * 12, 100.0)

    def test_unknown_endpoint_controls_rejected(self):
        with pytest.raises(RadioError):
            self.medium.set_enabled("ghost", True)

    def test_detach(self):
        self.attach()
        self.medium.detach("rx")
        assert "rx" not in self.medium.endpoints()

    def test_stats_accumulate(self):
        self.attach()
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.transmit("tx", frame().encode(), 100.0)
        self.clock.advance(1.0)
        stats = self.medium.stats
        assert stats["transmissions"] == 1
        assert stats["deliveries"] == 1

    def test_collisions_off_by_default(self):
        # The channel is ideally arbitrated: overlapping airtimes both
        # arrive, each with the bytes it was sent with.
        clock = SimClock()
        medium = RadioMedium(clock, random.Random(8))
        received = []
        medium.attach("rx", (3.0, 0.0), Region.US, received.append)
        medium.attach("a", (0.0, 0.0), Region.US, lambda r: None)
        medium.attach("b", (1.0, 0.0), Region.US, lambda r: None)
        medium.transmit("a", frame().encode(), 100.0)
        medium.transmit("b", frame(b"\x25\x02").encode(), 100.0)
        clock.advance(1.0)
        assert [r.raw for r in received] == [
            frame().encode(), frame(b"\x25\x02").encode()
        ]


class _Action:
    """A fault injector that answers every transmission with one action."""

    def __init__(self, drop=False, corrupt=None, extra_delay=0.0, duplicate=False):
        self.action = SimpleNamespace(
            drop=drop, corrupt=corrupt, extra_delay=extra_delay, duplicate=duplicate
        )
        self.seen = []

    def on_transmit(self, sender, frame_bytes):
        self.seen.append((sender, frame_bytes))
        return self.action


class TestFaultHook:
    """The medium's side of the fault-injector contract."""

    def setup_method(self):
        self.clock = SimClock()
        self.medium = RadioMedium(self.clock, random.Random(3))
        self.received = []
        self.arrivals = []
        self.medium.attach("rx", (5.0, 0.0), Region.US, self.receive)
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda r: None)

    def receive(self, reception):
        self.received.append(reception)
        self.arrivals.append(self.clock.now)

    def send(self, injector):
        self.medium.fault_injector = injector
        airtime = self.medium.transmit("tx", frame().encode(), 100.0)
        self.clock.advance(1.0)
        return airtime

    def test_injector_sees_every_transmission(self):
        injector = _Action()
        self.send(injector)
        assert injector.seen == [("tx", frame().encode())]
        assert [r.raw for r in self.received] == [frame().encode()]

    def test_drop_counts_a_loss_and_delivers_nothing(self):
        self.send(_Action(drop=True))
        assert self.received == []
        assert self.medium.stats == {"transmissions": 1, "deliveries": 0, "losses": 1}

    def test_corrupt_replaces_the_delivered_bytes(self):
        rewritten = frame(b"\x25\x01\xff").encode()
        self.send(_Action(corrupt=rewritten))
        assert [r.raw for r in self.received] == [rewritten]

    def test_extra_delay_postpones_delivery(self):
        airtime = self.send(_Action(extra_delay=0.25))
        assert self.arrivals == [pytest.approx(airtime + 0.25)]

    def test_duplicate_arrives_again_one_airtime_later(self):
        airtime = self.send(_Action(duplicate=True))
        first, second = self.received
        assert first.raw == second.raw == frame().encode()
        assert self.arrivals == [pytest.approx(airtime), pytest.approx(2 * airtime)]
        assert self.medium.stats["deliveries"] == 2


class TestUnheardExcept:
    """The medium's test for a transmission only one listener would act on."""

    def setup_method(self):
        self.clock = SimClock()
        self.medium = RadioMedium(self.clock, random.Random(11))
        self.heard = []
        self.medium.attach("ctrl", (0.0, 0.0), Region.US, self.heard.append)
        self.medium.attach("dongle", (10.0, 0.0), Region.US, lambda r: None)
        # A slave on another node: the NOP to node 1 is not for it.
        self.medium.attach(
            "slave", (4.0, 0.0), Region.US, lambda r: None, address=(HOME, 3)
        )
        self.nop = make_nop(HOME, 15, 1).encode()

    def unheard(self):
        return self.medium.unheard_except("dongle", self.nop, 100.0, "ctrl")

    def test_addressed_rejecting_listeners_leave_it_unheard(self):
        assert self.unheard() == airtime_seconds(self.nop, 100.0)

    def test_unknown_sender_is_not_cleared(self):
        assert self.medium.unheard_except("ghost", self.nop, 100.0, "ctrl") is None

    def test_fault_injector_is_never_cleared(self):
        self.medium.fault_injector = _Action()
        assert self.unheard() is None

    def test_unaddressed_listener_hears_it(self):
        self.medium.attach("sniffer", (2.0, 0.0), Region.US, lambda r: None)
        assert self.unheard() is None

    def test_broadcast_reaches_the_addressed_slave(self):
        broadcast = make_nop(HOME, 15, const.BROADCAST_NODE_ID).encode()
        assert self.medium.unheard_except("dongle", broadcast, 100.0, "ctrl") is None

    def test_unreachable_listeners_do_not_count(self):
        self.medium.attach("far", (100000.0, 0.0), Region.US, lambda r: None)
        self.medium.attach("eu", (2.0, 0.0), Region.EU, lambda r: None)
        self.medium.attach("off", (2.0, 0.0), Region.US, lambda r: None)
        self.medium.set_enabled("off", False)
        assert self.unheard() == airtime_seconds(self.nop, 100.0)

    @pytest.mark.parametrize("count", [1, 4, 25])
    def test_transmit_unheard_books_what_transmit_would(self, count):
        def run(booked):
            clock = SimClock()
            medium = RadioMedium(clock, random.Random(count))
            heard = []
            medium.attach("ctrl", (60.0, 0.0), Region.US, heard.append)
            medium.attach("dongle", (0.0, 0.0), Region.US, lambda r: None)
            medium.attach(
                "slave", (30.0, 0.0), Region.US, lambda r: None, address=(HOME, 3)
            )
            medium.attach("far", (100000.0, 0.0), Region.US, lambda r: None)
            if booked:
                kept = medium.transmit_unheard("dongle", "ctrl", count)
            else:
                for _ in range(count):
                    medium.transmit("dongle", self.nop, 100.0)
                clock.drain()
                kept = len(heard)
            return kept, medium.stats, medium._rng.getstate(), clock.schedule(0.0, int)

        assert run(True) == run(False)


class TestTransceiver:
    def setup_method(self):
        self.clock = SimClock()
        self.medium = RadioMedium(self.clock, random.Random(6))
        self.dongle = Transceiver(self.medium, position=(10.0, 0.0))

    def test_unconfigured_inject_rejected(self):
        with pytest.raises(TransceiverError):
            self.dongle.inject(make_nop(HOME, 15, 1))

    def test_invalid_rate_rejected(self):
        with pytest.raises(TransceiverError):
            self.dongle.configure(Region.US, 12.3)

    def test_invalid_region_rejected(self):
        with pytest.raises(TransceiverError):
            self.dongle.configure("US", 100.0)

    def test_configure_then_inject(self):
        self.dongle.configure(Region.US, 100.0)
        received = []
        self.medium.attach("ctrl", (0.0, 0.0), Region.US, received.append)
        airtime = self.dongle.inject(make_nop(HOME, 15, 1))
        self.clock.advance(airtime + 0.01)
        assert len(received) == 1
        assert self.dongle.frames_injected == 1

    def test_inject_raw_malformed(self):
        self.dongle.configure(Region.US, 100.0)
        received = []
        self.medium.attach("ctrl", (0.0, 0.0), Region.US, received.append)
        self.dongle.inject_raw(b"\xde\xad\xbe\xef\x00\x41\x00\xff\x01\x20\x02\x00")
        self.clock.advance(0.1)
        assert len(received) == 1  # the medium carries garbage too

    def test_promiscuous_capture(self):
        self.dongle.configure(Region.US, 100.0)
        self.medium.attach("ctrl", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.transmit("ctrl", frame().encode(), 100.0)
        self.clock.advance(0.1)
        captures = self.dongle.captures()
        assert len(captures) == 1
        assert captures[0].frame is not None
        assert captures[0].frame.home_id == HOME

    def test_undecodable_capture_kept_raw(self):
        self.dongle.configure(Region.US, 100.0)
        self.medium.attach("ctrl", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.transmit("ctrl", b"\x01\x02\x03", 100.0)
        self.clock.advance(0.1)
        captures = self.dongle.captures()
        assert len(captures) == 1
        assert captures[0].frame is None

    def test_drain_clears_buffer(self):
        self.dongle.configure(Region.US, 100.0)
        self.medium.attach("ctrl", (0.0, 0.0), Region.US, lambda r: None)
        self.medium.transmit("ctrl", frame().encode(), 100.0)
        self.clock.advance(0.1)
        assert len(self.dongle.drain_captures()) == 1
        assert self.dongle.captures() == []
