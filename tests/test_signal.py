"""Tests for the PHY bit-level signal codec."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import RadioError
from repro.radio.signal import (
    DEFAULT_PREAMBLE_LENGTH,
    PREAMBLE_BYTE,
    SOF_BYTE,
    airtime_seconds,
    bits_to_bytes,
    bytes_to_bits,
    decode_phy,
    encode_phy,
    manchester_decode,
    manchester_encode,
)


class TestBitPacking:
    def test_bytes_to_bits_msb_first(self):
        assert bytes_to_bits(b"\x80") == [1, 0, 0, 0, 0, 0, 0, 0]
        assert bytes_to_bits(b"\x01") == [0, 0, 0, 0, 0, 0, 0, 1]

    def test_roundtrip(self):
        data = b"\xde\xad\xbe\xef"
        assert bits_to_bytes(bytes_to_bits(data)) == data

    def test_unaligned_rejected(self):
        with pytest.raises(RadioError):
            bits_to_bytes([1, 0, 1])

    @given(st.binary(max_size=64))
    def test_roundtrip_property(self, data):
        assert bits_to_bytes(bytes_to_bits(data)) == data


class TestManchester:
    def test_encoding_rules(self):
        assert manchester_encode([0]) == [0, 1]
        assert manchester_encode([1]) == [1, 0]

    def test_roundtrip(self):
        bits = [1, 0, 1, 1, 0, 0, 1, 0]
        assert manchester_decode(manchester_encode(bits)) == bits

    def test_invalid_pair_rejected(self):
        with pytest.raises(RadioError):
            manchester_decode([1, 1])

    def test_odd_stream_rejected(self):
        with pytest.raises(RadioError):
            manchester_decode([1, 0, 1])

    @given(st.lists(st.integers(min_value=0, max_value=1), max_size=64))
    def test_roundtrip_property(self, bits):
        assert manchester_decode(manchester_encode(bits)) == bits


class TestPhyCodec:
    FRAME = b"\xe7\xde\x3f\x3d\x02\x41\x00\x0d\x01\x20\x02\x99"

    def test_r3_roundtrip(self):
        bits = encode_phy(self.FRAME, rate_kbaud=100.0)
        assert decode_phy(bits, rate_kbaud=100.0) == self.FRAME

    def test_r1_manchester_roundtrip(self):
        bits = encode_phy(self.FRAME, rate_kbaud=9.6)
        assert decode_phy(bits, rate_kbaud=9.6) == self.FRAME

    def test_preamble_present(self):
        bits = encode_phy(self.FRAME, rate_kbaud=100.0)
        head = bits_to_bytes(bits[: (DEFAULT_PREAMBLE_LENGTH + 1) * 8])
        assert head == bytes([PREAMBLE_BYTE] * DEFAULT_PREAMBLE_LENGTH + [SOF_BYTE])

    def test_leading_noise_tolerated(self):
        bits = encode_phy(self.FRAME, rate_kbaud=100.0)
        noisy = [1, 1, 0, 1, 0, 0, 1] + bits
        assert decode_phy(noisy, rate_kbaud=100.0) == self.FRAME

    def test_no_sof_raises(self):
        with pytest.raises(RadioError):
            decode_phy([0, 1] * 64, rate_kbaud=100.0)

    def test_custom_preamble_length(self):
        bits = encode_phy(self.FRAME, rate_kbaud=100.0, preamble_length=4)
        assert decode_phy(bits, rate_kbaud=100.0) == self.FRAME

    def test_zero_preamble_rejected(self):
        with pytest.raises(RadioError):
            encode_phy(self.FRAME, rate_kbaud=100.0, preamble_length=0)

    def test_corruption_in_payload_changes_bytes(self):
        bits = encode_phy(self.FRAME, rate_kbaud=100.0)
        payload_start = (DEFAULT_PREAMBLE_LENGTH + 1) * 8
        bits[payload_start + 3] ^= 1
        decoded = decode_phy(bits, rate_kbaud=100.0)
        assert decoded != self.FRAME

    @given(st.binary(min_size=1, max_size=48))
    @settings(max_examples=30)
    def test_roundtrip_property_both_rates(self, frame):
        for rate in (9.6, 100.0):
            assert decode_phy(encode_phy(frame, rate), rate) == frame


class TestAirtime:
    def test_r3_faster_than_r1(self):
        frame = b"\x00" * 20
        assert airtime_seconds(frame, 100.0) < airtime_seconds(frame, 9.6)

    def test_manchester_doubles_data_symbols(self):
        frame = b"\x00" * 10
        overhead_bits = (DEFAULT_PREAMBLE_LENGTH + 1) * 8
        r1 = airtime_seconds(frame, 9.6)
        assert r1 == pytest.approx((overhead_bits + 160) / 9600.0)

    def test_scales_with_length(self):
        assert airtime_seconds(b"\x00" * 40, 100.0) > airtime_seconds(b"\x00" * 10, 100.0)

    def test_typical_frame_under_5ms_at_r3(self):
        assert airtime_seconds(b"\x00" * 13, 100.0) < 0.005
