"""The liveness oracle's raw-byte ACK match against the rule it replaced.

``LivenessMonitor.ping`` used to wrap every capture in a
``CapturedFrame`` and a ``lenient_view`` and test the view's ``is_ack``,
``src`` and ``dst``.  ``is_raw_ack`` reads the same bytes straight off
the buffer; these seeded buffers show the two agree, shape by shape.
"""

from __future__ import annotations

import random

import pytest

from repro.core.fingerprint import SCANNER_NODE_ID
from repro.radio.clock import SimClock
from repro.radio.medium import RadioMedium
from repro.radio.transceiver import Transceiver
from repro.zwave import constants as const
from repro.errors import FrameError
from repro.zwave.frame import ZWaveFrame, dissectable, is_raw_ack, lenient_view

CONTROLLER = 0x01
MIN_SIZE = const.MAC_HEADER_SIZE + const.CS8_TRAILER_SIZE


def old_rule(raw: bytes, src: int) -> bool:
    frame = lenient_view(raw)
    return (
        frame is not None
        and frame.is_ack
        and frame.src == src
        and frame.dst == SCANNER_NODE_ID
    )


def real_ack(rng: random.Random, src: int = CONTROLLER, dst: int = SCANNER_NODE_ID) -> bytes:
    request = ZWaveFrame(
        home_id=rng.getrandbits(32),
        src=dst,
        dst=src,
        payload=bytes([0x00]),
        sequence=rng.randrange(16),
    )
    return request.ack().encode()


def random_bytes(rng: random.Random, size: int) -> bytes:
    return bytes(rng.getrandbits(8) for _ in range(size))


def short(rng):
    return random_bytes(rng, rng.randrange(MIN_SIZE))


def oversize(rng):
    raw = bytearray(random_bytes(rng, rng.randrange(const.MAX_MAC_FRAME_SIZE + 1, 100)))
    raw[const.P1_OFFSET] = const.HeaderType.ACK
    raw[const.SRC_OFFSET] = CONTROLLER
    raw[const.DST_OFFSET] = SCANNER_NODE_ID
    return bytes(raw)


def non_ack(rng):
    raw = bytearray(real_ack(rng))
    kinds = [t for t in range(16) if t != const.HeaderType.ACK]
    raw[const.P1_OFFSET] = (raw[const.P1_OFFSET] & 0xF0) | rng.choice(kinds)
    return bytes(raw)


def ack_from_other_node(rng):
    return real_ack(rng, src=rng.choice([n for n in range(256) if n != CONTROLLER]))


def ack_to_other_node(rng):
    return real_ack(rng, dst=rng.choice([n for n in range(256) if n != SCANNER_NODE_ID]))


def corrupted_p1(rng):
    raw = bytearray(real_ack(rng))
    raw[const.P1_OFFSET] ^= 1 << rng.randrange(8)
    return bytes(raw)


def in_range_noise(rng):
    return random_bytes(rng, rng.randrange(MIN_SIZE, const.MAX_MAC_FRAME_SIZE + 1))


def genuine(rng):
    return real_ack(rng)


SHAPES = [
    short,
    oversize,
    non_ack,
    ack_from_other_node,
    ack_to_other_node,
    corrupted_p1,
    in_range_noise,
    genuine,
]


@pytest.mark.parametrize("shape", SHAPES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("seed", range(4))
def test_raw_match_agrees_with_lenient_view(shape, seed):
    rng = random.Random(f"{shape.__name__}.{seed}")
    for _ in range(250):
        raw = shape(rng)
        assert is_raw_ack(raw, CONTROLLER, SCANNER_NODE_ID) == old_rule(raw, CONTROLLER), raw.hex()


def test_shapes_cover_both_answers():
    rng = random.Random(0)
    assert is_raw_ack(genuine(rng), CONTROLLER, SCANNER_NODE_ID)
    for shape in (short, oversize, non_ack, ack_from_other_node, ack_to_other_node):
        assert not is_raw_ack(shape(rng), CONTROLLER, SCANNER_NODE_ID), shape.__name__
    boundary = real_ack(rng)
    assert len(boundary) >= MIN_SIZE
    assert not is_raw_ack(boundary[: MIN_SIZE - 1], CONTROLLER, SCANNER_NODE_ID)


@pytest.mark.parametrize("shape", [short, oversize, in_range_noise], ids=lambda f: f.__name__)
def test_dissectable_is_what_the_lenient_parse_accepts(shape):
    rng = random.Random(shape.__name__)
    for _ in range(250):
        raw = shape(rng)
        try:
            ZWaveFrame.decode(raw, verify=False)
        except FrameError:
            parses = False
        else:
            parses = True
        assert dissectable(raw) == parses, raw.hex()


def test_capture_ring_bytes_match_captures():
    """Through a real dongle: ``capture_bytes`` carries what ``captures`` wrapped."""
    rng = random.Random(7)
    clock = SimClock()
    medium = RadioMedium(clock, random.Random(1))
    dongle = Transceiver(medium, name="dongle", position=(0.0, 0.0))
    dongle.configure(const.Region.US, 100.0)
    medium.attach("tx", (5.0, 0.0), const.Region.US, lambda reception: None)
    for _ in range(200):
        shape = rng.choice(SHAPES)
        medium.transmit("tx", shape(rng), 100.0)
    clock.advance(1.0)
    raws = dongle.capture_bytes()
    captures = dongle.captures()
    assert len(raws) == len(captures) == 200
    assert raws == [capture.raw for capture in captures]
    for raw, capture in zip(raws, captures):
        frame = capture.frame
        old = (
            frame is not None
            and frame.is_ack
            and frame.src == CONTROLLER
            and frame.dst == SCANNER_NODE_ID
        )
        assert is_raw_ack(raw, CONTROLLER, SCANNER_NODE_ID) == old
