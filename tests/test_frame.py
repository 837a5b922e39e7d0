"""Tests for the Z-Wave MAC frame codec (Figure 1 layout)."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ChecksumError, FrameError, FrameTooLargeError
from repro.zwave import constants as const
from repro.zwave.checksum import cs8
from repro.zwave.frame import ZWaveFrame, make_nop

HOME = 0xE7DE3F3D


def make_frame(**overrides):
    fields = dict(home_id=HOME, src=2, dst=1, payload=b"\x20\x01\xff")
    fields.update(overrides)
    return ZWaveFrame(**fields)


class TestFrameLayout:
    def test_encoded_header_fields(self):
        raw = make_frame(sequence=5).encode()
        assert raw[0:4] == HOME.to_bytes(4, "big")
        assert raw[4] == 2  # SRC
        assert raw[8] == 1  # DST
        assert raw[7] == len(raw)  # LEN counts the whole frame
        assert raw[9:12] == b"\x20\x01\xff"
        assert raw[6] & 0x0F == 5  # sequence nibble in P2

    def test_checksum_is_last_byte(self):
        raw = make_frame().encode()
        assert raw[-1] == cs8(raw[:-1])

    def test_length_matches_figure1(self):
        # 9-byte header + payload + 1-byte CS.
        frame = make_frame(payload=b"\x20\x02")
        assert frame.length == 9 + 2 + 1

    def test_p1_flags(self):
        frame = make_frame(ack_request=True, routed=True, low_power=True)
        assert frame.p1 & const.P1_ACK_REQUEST_FLAG
        assert frame.p1 & const.P1_ROUTED_FLAG
        assert frame.p1 & const.P1_LOW_POWER_FLAG
        assert frame.p1 & 0x0F == const.HeaderType.SINGLECAST

    def test_apl_field_accessors(self):
        frame = make_frame(payload=b"\x62\x01\xff\x00")
        assert frame.cmdcl == 0x62
        assert frame.cmd == 0x01

    def test_empty_payload_accessors(self):
        frame = make_frame(payload=b"")
        assert frame.cmdcl is None
        assert frame.cmd is None


class TestFrameValidation:
    def test_rejects_home_id_out_of_range(self):
        with pytest.raises(FrameError):
            make_frame(home_id=2**32)

    def test_rejects_bad_node_ids(self):
        with pytest.raises(FrameError):
            make_frame(src=256)
        with pytest.raises(FrameError):
            make_frame(dst=-1)

    def test_rejects_bad_sequence(self):
        with pytest.raises(FrameError):
            make_frame(sequence=16)

    def test_rejects_oversized_frame(self):
        with pytest.raises(FrameTooLargeError):
            make_frame(payload=b"\x00" * 60)

    def test_max_frame_is_64_bytes(self):
        frame = make_frame(payload=b"\x00" * const.MAX_APL_PAYLOAD_SIZE)
        assert len(frame.encode()) == const.MAX_MAC_FRAME_SIZE


class TestFrameDecode:
    def test_roundtrip(self):
        frame = make_frame(sequence=9)
        decoded = ZWaveFrame.decode(frame.encode())
        assert decoded.home_id == frame.home_id
        assert decoded.src == frame.src
        assert decoded.dst == frame.dst
        assert decoded.payload == frame.payload
        assert decoded.sequence == frame.sequence

    def test_too_short_raises(self):
        with pytest.raises(FrameError):
            ZWaveFrame.decode(b"\x00" * 5)

    def test_too_long_raises(self):
        with pytest.raises(FrameTooLargeError):
            ZWaveFrame.decode(b"\x00" * 65)

    def test_bad_checksum_raises(self):
        raw = bytearray(make_frame().encode())
        raw[-1] ^= 0x01
        with pytest.raises(ChecksumError):
            ZWaveFrame.decode(bytes(raw))

    def test_bad_length_raises(self):
        raw = bytearray(make_frame().encode())
        raw[7] = 60
        raw[-1] = cs8(raw[:-1])
        with pytest.raises(FrameError):
            ZWaveFrame.decode(bytes(raw))

    def test_lenient_decode_accepts_bad_checksum(self):
        raw = bytearray(make_frame().encode())
        raw[-1] ^= 0x01
        decoded = ZWaveFrame.decode(bytes(raw), verify=False)
        assert decoded.home_id == HOME

    def test_lenient_decode_accepts_bad_length(self):
        raw = bytearray(make_frame().encode())
        raw[7] = 0xFF
        decoded = ZWaveFrame.decode(bytes(raw), verify=False)
        assert decoded.src == 2

    @given(
        home=st.integers(min_value=0, max_value=2**32 - 1),
        src=st.integers(min_value=0, max_value=255),
        dst=st.integers(min_value=0, max_value=255),
        payload=st.binary(max_size=40),
        seq=st.integers(min_value=0, max_value=15),
        ack=st.booleans(),
    )
    def test_roundtrip_property(self, home, src, dst, payload, seq, ack):
        frame = ZWaveFrame(
            home_id=home, src=src, dst=dst, payload=payload, sequence=seq, ack_request=ack
        )
        decoded = ZWaveFrame.decode(frame.encode())
        assert decoded == frame or (
            decoded.home_id == home
            and decoded.src == src
            and decoded.dst == dst
            and decoded.payload == payload
            and decoded.sequence == seq
            and decoded.ack_request == ack
        )


class TestFrameHelpers:
    def test_ack_swaps_addresses(self):
        frame = make_frame(src=2, dst=1)
        ack = frame.ack()
        assert ack.src == 1
        assert ack.dst == 2
        assert ack.home_id == frame.home_id
        assert ack.sequence == frame.sequence

    def test_ack_to_broadcast_uses_own_identity(self):
        frame = make_frame(src=2, dst=const.BROADCAST_NODE_ID)
        ack = frame.ack()
        assert ack.src == 2
        assert ack.dst == 2

    def test_ack_is_ack_type(self):
        ack = make_frame().ack()
        assert ack.is_ack
        assert not ack.ack_request
        assert ack.payload == b""

    def test_ack_survives_codec(self):
        ack = make_frame().ack()
        assert ZWaveFrame.decode(ack.encode()).is_ack

    def test_broadcast_detection(self):
        assert make_frame(dst=0xFF).is_broadcast
        assert not make_frame(dst=1).is_broadcast

    def test_with_payload_recomputes_checksum(self):
        frame = make_frame()
        original = frame.encode()
        swapped = frame.with_payload(b"\x20\x02")
        raw = swapped.encode()
        assert raw[-1] == cs8(raw[:-1])
        assert raw != original

    def test_make_nop_payload(self):
        nop = make_nop(HOME, 0x0F, 1)
        assert nop.payload == b"\x00"

    def test_singlecast_is_the_default_header(self):
        frame = ZWaveFrame(home_id=HOME, src=3, dst=1, payload=b"\x25\x02", sequence=2)
        assert frame.header_type == const.HeaderType.SINGLECAST
        assert frame.sequence == 2
