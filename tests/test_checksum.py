"""Unit and property tests for the CS-8 and CRC-16 integrity checks."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import ChecksumError
from repro.zwave.checksum import crc16, cs8
from repro.zwave.frame import ZWaveFrame


class TestCs8:
    def test_empty_input_is_seed(self):
        assert cs8(b"") == 0xFF

    def test_known_value(self):
        assert cs8(b"\x01\x02\x03") == 0xFF ^ 0x01 ^ 0x02 ^ 0x03

    def test_single_byte(self):
        assert cs8(b"\x00") == 0xFF
        assert cs8(b"\xff") == 0x00

    def test_accepts_iterables(self):
        assert cs8([0x01, 0x02]) == cs8(b"\x01\x02")

    def test_verify_accepts_correct_checksum(self):
        raw = ZWaveFrame(home_id=0xC0FFEE01, src=2, dst=1, payload=b"hello zwave").encode()
        assert raw[-1] == cs8(raw[:-1])
        assert ZWaveFrame.decode(raw).payload == b"hello zwave"

    def test_verify_rejects_wrong_checksum(self):
        raw = bytearray(ZWaveFrame(home_id=0xC0FFEE01, src=2, dst=1, payload=b"hello zwave").encode())
        raw[-1] ^= 0x01
        with pytest.raises(ChecksumError):
            ZWaveFrame.decode(bytes(raw))

    @given(st.binary(max_size=64))
    def test_result_is_byte(self, data):
        assert 0 <= cs8(data) <= 0xFF

    @given(st.binary(min_size=1, max_size=64))
    def test_order_sensitive_via_xor_pairs(self, data):
        # Appending the checksum byte always yields a zero-sum frame: the
        # seed and the data XOR cancel against the embedded checksum.
        total = cs8(bytes(data) + bytes([cs8(data)]))
        assert total == 0x00

    @given(st.binary(max_size=64), st.integers(min_value=0, max_value=255))
    def test_single_byte_flip_always_detected(self, data, flip):
        if not data:
            return
        corrupted = bytearray(data)
        corrupted[0] ^= flip
        if flip == 0:
            assert cs8(bytes(corrupted)) == cs8(data)
        else:
            assert cs8(bytes(corrupted)) != cs8(data)


class TestCrc16:
    def test_known_aug_ccitt_vector(self):
        # CRC-16/AUG-CCITT("123456789") = 0xE5CC.
        assert crc16(b"123456789") == 0xE5CC

    def test_empty_input_is_init(self):
        assert crc16(b"") == 0x1D0F

    def test_verify_roundtrip(self):
        # The CRC_16_ENCAP trailer: big-endian CRC over CMDCL..inner.
        covered = b"\x56\x01\x20\x02"
        trailer = crc16(covered).to_bytes(2, "big")
        assert crc16(covered) == int.from_bytes(trailer, "big")
        assert crc16(covered[:-1] + b"\x03") != int.from_bytes(trailer, "big")

    @given(st.binary(max_size=128))
    def test_result_is_16_bits(self, data):
        assert 0 <= crc16(data) <= 0xFFFF

    @given(st.binary(min_size=1, max_size=64), st.integers(min_value=1, max_value=255))
    def test_single_byte_corruption_detected(self, data, flip):
        corrupted = bytearray(data)
        corrupted[-1] ^= flip
        assert crc16(bytes(corrupted)) != crc16(data)

    @given(st.binary(max_size=64))
    def test_deterministic(self, data):
        assert crc16(data) == crc16(data)
