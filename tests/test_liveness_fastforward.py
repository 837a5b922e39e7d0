"""The hang-wait fast path against the polling loop it short-cuts.

``LivenessMonitor.ping_until_responsive`` settles the NOPs a hung
controller provably drops without running them through the event engine.
Every case here runs the same wait twice, once as shipped and once with
the eligibility check forced off (so every ping goes through the engine),
and asserts that the two leave identical state: the measured duration,
simulated time, the medium's rng, the next clock event id, every counter
and the obs snapshot.
"""

from __future__ import annotations

import dataclasses
import math

import pytest

from repro.core.fingerprint import SCANNER_NODE_ID
from repro.core.monitor import LivenessMonitor
from repro.faults.injector import MediumFaultInjector
from repro.faults.plan import stock_plan
from repro.faults.schedule import FaultSchedule
from repro.obs.metrics import MetricsCollector, collecting
from repro.radio.clock import SimClock
from repro.radio.signal import airtime_seconds
from repro.radio.transceiver import Transceiver
from repro.simulator.testbed import CONTROLLER_IDS, build_sut
from repro.simulator.vulnerabilities import MacQuirk
from repro.zwave.constants import Region
from repro.zwave.frame import ZWaveFrame, make_nop

#: One trigger per planted Table III hang bug (all affect D1-D7).
HANG_TRIGGERS = {
    7: bytes([0x5A, 0x01]),
    8: bytes([0x59, 0x03, 0x00, 0x01]),
    9: bytes([0x7A, 0x01]),
    10: bytes([0x86, 0x13, 0x00]),
    11: bytes([0x59, 0x05, 0x00, 0x01]),
    14: bytes([0x01, 0x04, 0xFF]),
    15: bytes([0x7A, 0x03, 0x00, 0x01]),
}

SEEDS = range(5)

#: 30 m is a perfect link; at 60 m every loss draw can go either way;
#: the lossy fault plan puts a fault injector on the medium, which the
#: fast path must refuse.
CHANNELS = ("clean", "marginal", "lossy")


def build(device: str, seed: int, channel: str):
    distance = 60.0 if channel == "marginal" else 30.0
    sut = build_sut(device, seed=seed, attacker_distance_m=distance, traffic=False)
    if channel == "lossy":
        schedule = FaultSchedule(stock_plan("lossy"), seed)
        sut.medium.fault_injector = MediumFaultInjector(
            schedule.medium_specs, schedule.medium_rng()
        )
    return sut


def monitor_for(sut) -> LivenessMonitor:
    return LivenessMonitor(sut.dongle, sut.clock, sut.controller)


def attack(sut, payload: bytes) -> None:
    """What ``PacketTester.verify_payload`` does before it pings."""
    frame = ZWaveFrame(
        home_id=sut.profile.home_id,
        src=SCANNER_NODE_ID,
        dst=sut.controller.node_id,
        payload=payload,
    )
    sut.dongle.inject(frame)
    sut.clock.advance(0.25)


def run_wait(device, seed, channel, prepare, max_wait, forced):
    """Build a SUT, *prepare* it, then ping once and wait like the tester.

    Returns the observable state and how many pings were settled.
    """
    settled = []
    with pytest.MonkeyPatch.context() as patch:
        if forced:
            patch.setattr(LivenessMonitor, "_fast_forward_delay", lambda self: None)
        else:
            real = LivenessMonitor._settle_lost_pings

            def counting(self, *args):
                before = self.pings_sent
                real(self, *args)
                settled.append(self.pings_sent - before)

            patch.setattr(LivenessMonitor, "_settle_lost_pings", counting)
        sut = build(device, seed, channel)
        collector = MetricsCollector()
        with collecting(collector):
            monitor = monitor_for(sut)
            prepare(sut)
            first = monitor.ping()
            duration = monitor.ping_until_responsive(max_wait)
    injector = sut.medium.fault_injector
    state = {
        "first": first,
        "duration": duration,
        "now": sut.clock.now,
        "rng": sut.medium._rng.getstate(),
        "fault_rng": None if injector is None else injector._rng.getstate(),
        "next_event_id": sut.clock.schedule(0.0, lambda: None),
        "medium": sut.medium.stats,
        "controller": dataclasses.asdict(sut.controller.stats),
        "pings": (monitor.pings_sent, monitor.pings_lost),
        "injected": sut.dongle.frames_injected,
        "obs": collector.snapshot(),
    }
    return state, sum(settled)


def assert_same_wait(device, seed, channel, prepare, max_wait=600.0):
    fast, settled = run_wait(device, seed, channel, prepare, max_wait, forced=False)
    slow, none_settled = run_wait(device, seed, channel, prepare, max_wait, forced=True)
    assert none_settled == 0
    for key in slow:
        if key == "duration":
            # Exact float equality: the durations feed Table III labels.
            assert (fast[key] is None) == (slow[key] is None)
            assert fast[key] is None or fast[key] == slow[key]
        else:
            assert fast[key] == slow[key], key
    return fast, settled


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("bug_id", sorted(HANG_TRIGGERS))
@pytest.mark.parametrize("device", CONTROLLER_IDS)
def test_planted_hang_matches_polling_loop(device, bug_id, channel):
    payload = HANG_TRIGGERS[bug_id]
    for seed in SEEDS:
        state, settled = assert_same_wait(
            device, seed, channel, lambda sut: attack(sut, payload)
        )
        if channel == "lossy":
            assert settled == 0, "a fault plan must take the polling loop"
        elif state["controller"]["dropped_while_hung"]:
            # The hang swallowed NOPs, and the fast path settled them.
            assert settled > 0


@pytest.mark.parametrize("channel", CHANNELS)
def test_out_of_range_slave_matches_polling_loop(channel):
    """A listener below its sensitivity floor books a loss per transmission."""

    def prepare(sut):
        lock = sut.lock
        sut.medium.detach(lock.name)
        sut.medium.attach(
            lock.name, (2000.0, 0.0), Region.US, lock._on_receive,
            address=(lock.home_id, lock.node_id),
        )
        attack(sut, HANG_TRIGGERS[9])

    for seed in SEEDS:
        state, settled = assert_same_wait("D5", seed, channel, prepare)
        if channel == "clean":
            assert settled > 0


def send_times(start: float, count: int, timeout: float = 0.5, interval: float = 1.0):
    """The send times of the wait's first *count* pings, as the loop adds them."""
    times = []
    now = start
    for _ in range(count):
        times.append(now)
        now = now + timeout
        now = now + max(interval - timeout, 0.0)
    return times


def nop_airtime(sut) -> float:
    nop = make_nop(sut.profile.home_id, SCANNER_NODE_ID, sut.controller.node_id)
    return airtime_seconds(nop.encode(), sut.dongle.rate_kbaud)


@pytest.mark.parametrize("channel", CHANNELS)
@pytest.mark.parametrize("fraction", [0.0, 0.25, 0.5, 1.0, "below", "above"])
def test_hang_ending_within_one_airtime_of_a_send(channel, fraction):
    """The hang ends between a NOP's send and its arrival (or on either edge)."""
    probe = build("D1", 0, channel)
    airtime = nop_airtime(probe)
    assert airtime > 0.0

    for seed in SEEDS:
        for k in (1, 4, 9):
            def prepare(sut, k=k):
                # The tester's first ping goes at 0.0 and waits one
                # timeout; the wait's k-th send follows.
                assert sut.clock.now == 0.0
                sent = send_times(0.5, k + 1)[k]
                edge = sent + airtime
                if fraction == "below":
                    end = math.nextafter(edge, -math.inf)
                elif fraction == "above":
                    end = math.nextafter(edge, math.inf)
                else:
                    end = sent + fraction * airtime
                sut.controller.inject_hang(end - sut.clock.now)

            assert_same_wait("D1", seed, channel, prepare)


@pytest.mark.parametrize("channel", CHANNELS)
def test_wait_that_gives_up_at_max_wait(channel):
    for seed in SEEDS:
        # Bug #14 hangs for 240 s; off the clean link the attack frame
        # itself may be lost, and then the controller answers.
        state, _ = assert_same_wait(
            "D2", seed, channel, lambda sut: attack(sut, HANG_TRIGGERS[14]), max_wait=30.0
        )
        if channel == "clean":
            assert state["duration"] is None
        state, settled = assert_same_wait(
            "D3", seed, channel, lambda sut: sut.controller.inject_hang(1e4), max_wait=61.0
        )
        assert state["duration"] is None
        assert settled == (0 if channel == "lossy" else state["pings"][0] - 1)


# -- eligibility: every state the conditions do not cover polls ---------------


def hung_d1():
    sut = build_sut("D1", seed=3, traffic=False)
    sut.controller.inject_hang(30.0)
    return sut


def test_eligible_on_a_quiet_hung_sut():
    sut = hung_d1()
    assert monitor_for(sut)._fast_forward_delay() is not None


def test_quirk_matching_the_nop_polls():
    sut = hung_d1()
    quirk = MacQuirk("test", "matches every frame", 5.0, lambda raw: True)
    sut.controller._mac_quirks = (quirk,)
    assert monitor_for(sut)._fast_forward_delay() is None


def test_unaddressed_listener_polls():
    sut = hung_d1()
    sniffer = Transceiver(sut.medium, name="sniffer", position=(5.0, 5.0))
    sniffer.configure(Region.US, 100.0)
    assert monitor_for(sut)._fast_forward_delay() is None


def test_powered_off_controller_polls():
    sut = hung_d1()
    sut.controller.set_power(False)
    assert monitor_for(sut)._fast_forward_delay() is None


def test_controller_fault_injector_polls():
    sut = hung_d1()
    sut.controller.fault_injector = object()
    assert monitor_for(sut)._fast_forward_delay() is None


def test_pending_event_stops_settling():
    sut = hung_d1()
    monitor = monitor_for(sut)
    arrival = monitor._fast_forward_delay()
    assert arrival is not None
    sut.clock.schedule(10.0, lambda: None)
    monitor._settle_lost_pings(sut.clock.now, 600.0, 0.5, arrival)
    assert monitor.pings_sent == 0
    assert sut.clock.now == 0.0


def test_traffic_sut_matches_polling_loop():
    """Slave traffic keeps the queue busy: every ping goes through the engine."""

    def run(forced):
        with pytest.MonkeyPatch.context() as patch:
            if forced:
                patch.setattr(LivenessMonitor, "_fast_forward_delay", lambda self: None)
            sut = build_sut("D4", seed=2)
            monitor = monitor_for(sut)
            attack(sut, HANG_TRIGGERS[7])
            duration = monitor.ping_until_responsive(600.0)
        return duration, sut.clock.now, sut.medium.stats, monitor.pings_sent

    assert run(False) == run(True)


@pytest.mark.parametrize("count", [0, 1, 3])
def test_elide_events_consumes_ids_only(count):
    clock = SimClock()
    first = clock.schedule(1.0, lambda: None)
    clock.elide_events(count)
    assert clock.schedule(1.0, lambda: None) == first + count + 1
    assert clock.pending_events == 2
