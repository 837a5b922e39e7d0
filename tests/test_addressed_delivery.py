"""Addressed radio delivery: the medium's home-id/destination filter.

A slave attaches to the medium with its ``(home_id, node_id)`` address,
so the medium drops frames for other networks and other nodes before
they cost a ``Reception`` or a callback.  The filter is the check the
slave's own receive path used to make first, so an addressed slave must
behave exactly like an unaddressed twin that hears every frame and
rejects foreign ones itself: same frames received, same frames sent,
same medium statistics, same rng consumption.  The capture ring builds
its ``CapturedFrame`` records only when read, and must read exactly as
an eager ring would, roll-off included.
"""

from __future__ import annotations

import random
from collections import deque
from types import SimpleNamespace

import pytest

from repro.radio.clock import SimClock
from repro.radio.medium import RadioMedium
from repro.radio.transceiver import CAPTURE_BUFFER_SIZE, CapturedFrame, Transceiver
from repro.simulator.slave import VirtualBinarySwitch, VirtualDoorLock
from repro.zwave import constants as const
from repro.zwave.constants import Region
from repro.zwave.frame import ZWaveFrame, lenient_view

HOME = 0xE7DE3F3D
OTHER_HOME = 0xCD007171
LOCK_ID = 2
SWITCH_ID = 3
KINDS = (
    "valid", "wrong_home", "other_dst", "broadcast", "short",
    "oversize", "bad_len", "bad_checksum",
)
CONDITIONS = ("clean", "enabled_flips", "faults", "overlap", "corrupt")
SEEDS = range(6)


class _Recorder:
    """Fault-injector hook that logs every transmission.

    Under the "faults" condition it also duplicates and delays a seeded
    share of transmissions, the two actions that reschedule a whole batch;
    under "corrupt" it flips one bit of a seeded share, anywhere in the
    frame, so the filter sometimes reads a rewritten address.
    """

    def __init__(self, condition: str, seed: int):
        self.sent = []
        self._condition = condition
        self._rng = random.Random(seed)

    def on_transmit(self, sender, frame_bytes):
        self.sent.append((sender, frame_bytes.hex()))
        if self._condition == "faults":
            return SimpleNamespace(
                drop=False,
                corrupt=None,
                extra_delay=self._rng.choice((0.0, 0.0, 0.003)),
                duplicate=self._rng.random() < 0.3,
            )
        if self._condition == "corrupt" and frame_bytes and self._rng.random() < 0.3:
            raw = bytearray(frame_bytes)
            raw[self._rng.randrange(len(raw))] ^= 1 << self._rng.randrange(8)
            return SimpleNamespace(
                drop=False, corrupt=bytes(raw), extra_delay=0.0, duplicate=False
            )
        return None


def _frame_bytes(kind: str, rng: random.Random) -> bytes:
    """One test frame of *kind*, addressed (where it has a destination)
    to the lock or the switch."""
    dst = rng.choice((LOCK_ID, SWITCH_ID))
    payload = rng.choice(
        (
            b"\x25\x01\xff", b"\x25\x02", b"\x20\x01\x00", b"\x20\x02",
            b"\x62\x02", b"\x62\x01\x00", b"\x01\x02", b"\x00", b"",
        )
    )
    ack_request = rng.random() < 0.7
    sequence = rng.randrange(16)

    def encode(home_id: int, node: int) -> bytes:
        return ZWaveFrame(
            home_id=home_id, src=1, dst=node, payload=payload,
            ack_request=ack_request, sequence=sequence,
        ).encode()

    if kind == "valid":
        return encode(HOME, dst)
    if kind == "wrong_home":
        return encode(OTHER_HOME, dst)
    if kind == "other_dst":
        return encode(HOME, rng.choice((1, 4, 0x7F)))
    if kind == "broadcast":
        return encode(HOME, const.BROADCAST_NODE_ID)
    if kind == "short":
        return encode(HOME, dst)[: rng.randrange(const.MAC_HEADER_SIZE + 1)]
    if kind == "oversize":
        body = encode(HOME, dst)[:-1]
        filler = bytes(rng.randrange(256) for _ in range(const.MAX_MAC_FRAME_SIZE))
        return body + filler
    raw = bytearray(encode(HOME, dst))
    if kind == "bad_len":
        raw[const.LEN_OFFSET] ^= 1 + rng.randrange(0x7F)
    else:  # bad_checksum
        raw[-1] ^= 1 + rng.randrange(0xFF)
    return bytes(raw)


def _run(addressed: bool, condition: str, seed: int):
    """Drive one medium through a seeded frame mix; return its fingerprint."""
    clock = SimClock()
    rng = random.Random(1000 + seed)
    medium = RadioMedium(clock, rng)
    recorder = _Recorder(condition, seed)
    medium.fault_injector = recorder
    medium.attach("ctrl", (0.0, 0.0), Region.US, lambda reception: None)
    lock = VirtualDoorLock(
        "lock", HOME, LOCK_ID, clock, medium, position=(8.0, 3.0),
        rng=random.Random(seed),
    )
    # The switch sits on a marginal link, so loss draws decide deliveries.
    switch = VirtualBinarySwitch(
        "switch", HOME, SWITCH_ID, clock, medium, position=(45.0, -4.0),
        rng=random.Random(seed + 1),
    )
    # Re-attach both slaves in the same order in both runs; the twin has
    # no address, so every frame reaches its receive path.
    for slave, position in ((lock, (8.0, 3.0)), (switch, (45.0, -4.0))):
        medium.detach(slave.name)
        medium.attach(
            slave.name, position, Region.US, slave._on_receive,
            address=(HOME, slave.node_id) if addressed else None,
        )
    frames = random.Random(seed)
    for step in range(160):
        kind = frames.choice(KINDS)
        medium.transmit("ctrl", _frame_bytes(kind, frames), rate_kbaud=100.0)
        if condition == "enabled_flips" and step % 7 == 3:
            name = frames.choice(("lock", "switch"))
            medium.set_enabled(name, step % 14 != 3)
        if step % 40 == 20:
            switch.send_report()
        # "overlap" sends bursts of frames mid-air: on the one channel
        # every one of them still arrives.
        clock.advance(0.0005 if condition == "overlap" and step % 4 != 3 else 0.05)
    clock.advance(2.0)
    return (
        lock.frames_received,
        switch.frames_received,
        switch.on,
        lock.locked,
        recorder.sent,
        medium.stats,
        rng.getstate(),
    )


@pytest.mark.parametrize("condition", CONDITIONS)
@pytest.mark.parametrize("seed", SEEDS)
def test_addressed_slave_matches_unaddressed_twin(condition, seed):
    addressed = _run(True, condition, seed)
    twin = _run(False, condition, seed)
    assert addressed == twin
    # The mix is not vacuous: slaves act on frames and answer some.
    assert addressed[0] + addressed[1] > 0
    assert any(sender in ("lock", "switch") for sender, _ in addressed[4])


class TestAddressFilter:
    #: Whether every transmission is delayed and sent twice by the fault
    #: injector, which moves delivery onto the rescheduled batches.
    REPEAT = False

    def setup_method(self):
        self.clock = SimClock()
        self.medium = RadioMedium(self.clock, random.Random(0))
        if self.REPEAT:
            self.medium.fault_injector = SimpleNamespace(
                on_transmit=lambda sender, frame_bytes: self.action()
            )
        self.kept = []
        self.heard = []
        self.medium.attach("tx", (0.0, 0.0), Region.US, lambda reception: None)
        self.medium.attach(
            "slave", (3.0, 0.0), Region.US, self.kept.append,
            address=(HOME, SWITCH_ID),
        )
        self.medium.attach("sniffer", (3.0, 0.0), Region.US, self.heard.append)

    def deliver(self, raw: bytes) -> bool:
        del self.kept[:]
        self.medium.transmit("tx", raw, rate_kbaud=100.0)
        self.clock.advance(0.1)
        return bool(self.kept)

    def action(self, corrupt=None) -> SimpleNamespace:
        return SimpleNamespace(
            drop=False,
            corrupt=corrupt,
            extra_delay=0.003 if self.REPEAT else 0.0,
            duplicate=self.REPEAT,
        )

    def good(self, home_id=HOME, dst=SWITCH_ID) -> bytes:
        return ZWaveFrame(home_id=home_id, src=1, dst=dst, payload=b"\x25\x02").encode()

    def test_own_and_broadcast_frames_kept(self):
        assert self.deliver(self.good())
        assert self.deliver(self.good(dst=const.BROADCAST_NODE_ID))

    def test_foreign_frames_filtered(self):
        assert not self.deliver(self.good(home_id=OTHER_HOME))
        assert not self.deliver(self.good(dst=LOCK_ID))
        assert not self.deliver(self.good()[: const.MAC_HEADER_SIZE])

    def test_filter_reads_only_the_header(self):
        # LEN, checksum and size limits are the receiver's MAC checks, not
        # the medium's: a malformed frame for this node still arrives.
        raw = bytearray(self.good())
        raw[-1] ^= 0xFF
        assert self.deliver(bytes(raw))
        raw[const.LEN_OFFSET] ^= 0x01
        assert self.deliver(bytes(raw))
        assert self.deliver(self.good()[:-1] + bytes(const.MAX_MAC_FRAME_SIZE))

    def test_filtered_delivery_still_counts(self):
        self.deliver(self.good(home_id=OTHER_HOME))
        self.deliver(self.good())
        # Both transmissions reach both listeners; one callback was skipped.
        copies = 2 if self.REPEAT else 1
        assert self.medium.stats["deliveries"] == 4 * copies
        assert len(self.heard) == 2 * copies

    def test_filter_runs_on_corrupted_bytes(self):
        class Rewrite:
            def on_transmit(_, sender, frame_bytes):
                corrupt = self.good(dst=LOCK_ID) if frame_bytes == self.good() else None
                return self.action(corrupt)

        self.medium.fault_injector = Rewrite()
        assert not self.deliver(self.good())
        assert self.heard[-1].raw == self.good(dst=LOCK_ID)


class TestAddressFilterDelayedRepeats(TestAddressFilter):
    """The same cases when every frame is delayed and arrives twice."""

    REPEAT = True


def _projection(capture):
    frame = capture.frame
    return (
        capture.raw,
        capture.rssi_dbm,
        capture.timestamp,
        capture.decoded,
        None if frame is None else (frame.raw, frame.home_id, frame.dst),
    )


class TestLazyCaptureRing:
    def test_lazy_equals_eager_with_roll_off(self):
        clock = SimClock()
        medium = RadioMedium(clock, random.Random(4))
        dongle = Transceiver(medium, position=(10.0, 0.0))
        dongle.configure(Region.US, 100.0)
        # The eager reference: the record the ring used to build on receipt,
        # taken at the dongle's position so rssi and timestamps agree.
        eager = deque(maxlen=CAPTURE_BUFFER_SIZE)

        def capture(r):
            eager.append(
                _projection(
                    CapturedFrame(
                        r.raw, lenient_view(r.raw), r.rssi_dbm, r.timestamp
                    )
                )
            )

        medium.attach("eager", (10.0, 0.0), Region.US, capture)
        medium.attach("ctrl", (0.0, 0.0), Region.US, lambda reception: None)
        rng = random.Random(7)
        for _ in range(CAPTURE_BUFFER_SIZE + 150):
            medium.transmit("ctrl", _frame_bytes(rng.choice(KINDS), rng), 100.0)
            clock.advance(0.01)
        lazy = [_projection(c) for c in dongle.captures()]
        assert len(lazy) == CAPTURE_BUFFER_SIZE
        assert lazy == list(eager)
        assert [_projection(c) for c in dongle.captures()] == lazy
        assert [_projection(c) for c in dongle.drain_captures()] == lazy
        assert dongle.captures() == []
