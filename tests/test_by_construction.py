"""The records the campaign radio path builds without their ``__init__``.

``ZWaveFrame.decode`` (strict), ``ZWaveFrame.ack`` and
``ApplicationPayload.decode`` fill the instance ``__dict__`` directly
instead of running the generated ``__init__`` and ``__post_init__``.
These tests hold them to the validating constructors, differentially over
seeded raw buffers, and check that the dicts they build stay as small as
the constructors' (shared-key dicts, which ``__dict__.update`` would not
give).
"""

import random
import sys
from dataclasses import fields

import pytest

from repro.errors import FrameError
from repro.radio.clock import SimClock
from repro.radio.medium import RadioMedium
from repro.simulator.controller import VirtualController
from repro.simulator.vulnerabilities import TriggerContext
from repro.zwave import constants as const
from repro.zwave.application import ApplicationPayload
from repro.zwave.checksum import cs8
from repro.zwave.frame import ZWaveFrame

FRAME_FIELDS = [f.name for f in fields(ZWaveFrame)]
MIN_FRAME = const.MAC_HEADER_SIZE + const.CS8_TRAILER_SIZE


def _raw_frame(rng, p1, length, good_checksum, p2=None, dst=None):
    """A raw buffer of *length* bytes with P1 = *p1* and a consistent LEN."""
    body = bytearray(rng.getrandbits(8) for _ in range(length - 1))
    body[const.P1_OFFSET] = p1
    body[const.P2_OFFSET] = rng.randrange(16) if p2 is None else p2
    body[const.LEN_OFFSET] = length
    if dst is not None:
        body[const.DST_OFFSET] = dst
    checksum = cs8(body)
    if not good_checksum:
        checksum ^= 1 + rng.randrange(0xFF)
    return bytes(body) + bytes((checksum,))


def _buffers(seed):
    """Every P1 byte (all header types x all flag bits), at lengths
    10-64 drawn from the seed, with good and bad checksums, plus a
    broadcast destination for every eighth."""
    rng = random.Random(seed)
    for p1 in range(0x100):
        for good in (True, False):
            length = rng.randint(MIN_FRAME, const.MAX_MAC_FRAME_SIZE)
            dst = const.BROADCAST_NODE_ID if p1 % 8 == 0 else None
            yield _raw_frame(rng, p1, length, good, dst=dst)
    for length in range(MIN_FRAME, const.MAX_MAC_FRAME_SIZE + 1):
        yield _raw_frame(rng, rng.getrandbits(8), length, True)
        bad_len = bytearray(_raw_frame(rng, rng.getrandbits(8), length, True))
        bad_len[const.LEN_OFFSET] ^= 1 + rng.randrange(0xFF)
        bad_len[-1] = cs8(bad_len[:-1])
        yield bytes(bad_len)
    for length in (MIN_FRAME - 1, const.MAX_MAC_FRAME_SIZE + 1):
        yield bytes(rng.getrandbits(8) for _ in range(length))


def _strict_ok(raw):
    """Whether the strict decode accepts *raw*: size, LEN and CS-8."""
    return (
        MIN_FRAME <= len(raw) <= const.MAX_MAC_FRAME_SIZE
        and raw[const.LEN_OFFSET] == len(raw)
        and raw[-1] == cs8(raw[:-1])
    )


def _validated(raw):
    """What the strict decode built before: the validating constructor."""
    p1 = raw[const.P1_OFFSET]
    return ZWaveFrame(
        home_id=int.from_bytes(raw[const.HOME_ID_SLICE], "big"),
        src=raw[const.SRC_OFFSET],
        dst=raw[const.DST_OFFSET],
        payload=bytes(raw[const.APL_OFFSET : -1]),
        header_type=p1 & 0x0F,
        ack_request=bool(p1 & const.P1_ACK_REQUEST_FLAG),
        low_power=bool(p1 & const.P1_LOW_POWER_FLAG),
        speed_modified=bool(p1 & const.P1_SPEED_MODIFIED_FLAG),
        routed=bool(p1 & const.P1_ROUTED_FLAG),
        sequence=raw[const.P2_OFFSET] & const.P2_SEQUENCE_MASK,
        checksum=raw[-1],
    )


def _former_ack(frame):
    """``frame.reply(b"", header_type=ACK, ack_request=False)``, as
    ``ack()`` was written before it built the frame directly."""
    return ZWaveFrame(
        home_id=frame.home_id,
        src=frame.dst if frame.dst != const.BROADCAST_NODE_ID else frame.src,
        dst=frame.src,
        payload=b"",
        sequence=frame.sequence,
        header_type=const.HeaderType.ACK,
        ack_request=False,
    )


def _field_values(record, names):
    """Each field's value with its type, so ``True`` differs from ``1``."""
    return [(getattr(record, name), type(getattr(record, name))) for name in names]


@pytest.mark.parametrize("seed", range(4))
class TestFrameDifferential:
    def test_strict_decode_matches_validating_constructor(self, seed):
        decoded_count = 0
        for raw in _buffers(seed):
            if not _strict_ok(raw):
                with pytest.raises(FrameError):
                    ZWaveFrame.decode(raw)
                continue
            expected = _validated(raw)
            decoded = ZWaveFrame.decode(raw)
            decoded_count += 1
            assert type(decoded) is ZWaveFrame
            assert _field_values(decoded, FRAME_FIELDS) == _field_values(
                expected, FRAME_FIELDS
            )
            assert decoded == expected and hash(decoded) == hash(expected)
            assert decoded.encode() == raw == expected.encode()
        assert decoded_count > 256

    def test_ack_matches_former_reply(self, seed):
        broadcasts = 0
        for raw in _buffers(seed):
            try:
                frame = ZWaveFrame.decode(raw)
            except FrameError:
                continue
            broadcasts += frame.is_broadcast
            ack = frame.ack()
            expected = _former_ack(frame)
            assert type(ack) is ZWaveFrame
            assert _field_values(ack, FRAME_FIELDS) == _field_values(
                expected, FRAME_FIELDS
            )
            assert ack.encode() == expected.encode()
            assert ZWaveFrame.decode(ack.encode()) == ack
        assert broadcasts > 0

    def test_lenient_decode_still_validates_through_constructor(self, seed):
        # The lenient parse keeps the constructor, so the fields agree with
        # the strict decode wherever both accept the buffer.
        for raw in _buffers(seed):
            if not MIN_FRAME <= len(raw) <= const.MAX_MAC_FRAME_SIZE:
                with pytest.raises(FrameError):
                    ZWaveFrame.decode(raw, verify=False)
                continue
            lenient = ZWaveFrame.decode(raw, verify=False)
            assert _field_values(lenient, FRAME_FIELDS) == _field_values(
                _validated(raw), FRAME_FIELDS
            )


def _former_apl_decode(raw):
    if not raw:
        raise FrameError("empty application payload")
    cmd = raw[1] if len(raw) >= 2 else None
    return ApplicationPayload(cmdcl=raw[0], cmd=cmd, params=bytes(raw[2:]))


@pytest.mark.parametrize("seed", range(4))
def test_apl_decode_matches_validating_constructor(seed):
    rng = random.Random(seed)
    names = [f.name for f in fields(ApplicationPayload)]
    for length in range(0, const.MAX_APL_PAYLOAD_SIZE + 8):
        for _ in range(4):
            raw = bytes(rng.getrandbits(8) for _ in range(length))
            try:
                expected = _former_apl_decode(raw)
            except FrameError as exc:
                with pytest.raises(FrameError) as caught:
                    ApplicationPayload.decode(raw)
                assert str(caught.value) == str(exc)
                continue
            decoded = ApplicationPayload.decode(raw)
            assert _field_values(decoded, names) == _field_values(expected, names)
            assert decoded == expected and hash(decoded) == hash(expected)
            assert decoded.encode() == raw == expected.encode()
            assert len(decoded) == length


def test_over_long_apl_payload_raises():
    with pytest.raises(FrameError, match="54-byte APL maximum"):
        ApplicationPayload.decode(bytes(const.MAX_APL_PAYLOAD_SIZE + 1))
    assert len(ApplicationPayload.decode(bytes(const.MAX_APL_PAYLOAD_SIZE))) == 54


class TestSharedKeyDicts:
    """A by-construction record's ``__dict__`` is the size of the
    constructor's: keys in declaration order keep CPython's shared-key
    dict, which the 4,096-entry decode cache holds by the thousand."""

    def _assert_same_dict(self, built, constructed):
        assert list(built.__dict__) == list(constructed.__dict__)
        assert sys.getsizeof(built.__dict__) == sys.getsizeof(constructed.__dict__)

    def test_decoded_frame(self):
        rng = random.Random(11)
        for _ in range(32):
            raw = _raw_frame(rng, rng.getrandbits(8), rng.randint(10, 64), True)
            constructed = _validated(raw)
            constructed.encode()  # memoises _raw after the fields, as decode does
            self._assert_same_dict(ZWaveFrame.decode(raw), constructed)

    def test_ack_frame(self):
        frame = ZWaveFrame(home_id=0xC0FFEE01, src=2, dst=1, payload=b"\x20\x01")
        self._assert_same_dict(frame.ack(), _former_ack(frame))

    def test_decoded_apl_payload(self):
        for raw in (b"\x20", b"\x20\x01", b"\x20\x01\xff\x00"):
            self._assert_same_dict(
                ApplicationPayload.decode(raw), _former_apl_decode(raw)
            )

    def test_controller_trigger_context(self):
        seen = []

        class Spy:
            def triggered_by(self, ctx):
                seen.append(ctx)
                return False

        clock = SimClock()
        controller = VirtualController(
            "ctrl", 0xC0FFEE01, clock, RadioMedium(clock), (0x20,), (0x20,)
        )
        controller._zero_days_by_cmdcl = {0x20: (Spy(),)}
        payload = ApplicationPayload(0x20, 0x01, b"\xff")
        controller._process_payload(2, payload, encapsulated=True)
        expected = TriggerContext(
            cmdcl=0x20,
            cmd=0x01,
            params=b"\xff",
            encapsulated=True,
            supported_cmdcls=(0x20,),
        )
        assert seen == [expected]
        self._assert_same_dict(seen[0], expected)
