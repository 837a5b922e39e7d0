"""Bit-level PHY framing for the simulated air interface.

The passive scanner of Figure 4 starts from "raw binary data" and must
"filter out the noise by removing specific repetitive bytes in the signal".
This module is the line coding a frame rides on air::

    PREAMBLE (0x55 × n) | SOF (0xF0) | Manchester(R1) or NRZ(R2/R3) data

R1 (9.6 kbaud) uses Manchester coding, R2/R3 use NRZ, matching ITU-T
G.9959.  Decoding tolerates leading noise bits and strips the repetitive
preamble — exactly the "packet capturing" step of the paper.  The
simulated medium delivers demodulated bytes, as the dongle does, and
uses only :func:`airtime_seconds` from here; the Figure 1 bench runs the
bitstream codec itself.
"""

from __future__ import annotations

from typing import List, Optional

from ..errors import RadioError

PREAMBLE_BYTE = 0x55
SOF_BYTE = 0xF0
DEFAULT_PREAMBLE_LENGTH = 10


def bytes_to_bits(data: bytes) -> List[int]:
    """Expand bytes into a most-significant-bit-first bit list."""
    bits: List[int] = []
    for byte in data:
        for shift in range(7, -1, -1):
            bits.append((byte >> shift) & 1)
    return bits


def bits_to_bytes(bits: List[int]) -> bytes:
    """Pack a bit list (MSB first) into bytes; length must be a multiple of 8."""
    if len(bits) % 8:
        raise RadioError(f"bit stream of {len(bits)} bits is not byte aligned")
    out = bytearray()
    for offset in range(0, len(bits), 8):
        value = 0
        for bit in bits[offset : offset + 8]:
            value = (value << 1) | (bit & 1)
        out.append(value)
    return bytes(out)


def manchester_encode(bits: List[int]) -> List[int]:
    """IEEE-convention Manchester: 0 → 01, 1 → 10."""
    out: List[int] = []
    for bit in bits:
        out.extend((1, 0) if bit else (0, 1))
    return out


def manchester_decode(symbols: List[int]) -> List[int]:
    """Invert :func:`manchester_encode`; raises on an invalid symbol pair."""
    if len(symbols) % 2:
        raise RadioError("Manchester stream must have an even number of symbols")
    bits: List[int] = []
    for i in range(0, len(symbols), 2):
        pair = (symbols[i], symbols[i + 1])
        if pair == (1, 0):
            bits.append(1)
        elif pair == (0, 1):
            bits.append(0)
        else:
            raise RadioError(f"invalid Manchester symbol pair {pair} at offset {i}")
    return bits


def encode_phy(
    frame_bytes: bytes,
    rate_kbaud: float,
    preamble_length: int = DEFAULT_PREAMBLE_LENGTH,
) -> List[int]:
    """Wrap MAC *frame_bytes* into a PHY bitstream at *rate_kbaud*."""
    if preamble_length < 1:
        raise RadioError("preamble must be at least one byte")
    header = bytes([PREAMBLE_BYTE] * preamble_length + [SOF_BYTE])
    data_bits = bytes_to_bits(frame_bytes)
    if rate_kbaud <= 9.6:
        data_bits = manchester_encode(data_bits)
    return bytes_to_bits(header) + data_bits


def decode_phy(bits: List[int], rate_kbaud: float) -> bytes:
    """Recover MAC bytes from a PHY bitstream.

    Scans for the first ``PREAMBLE | SOF`` byte boundary (tolerating
    arbitrary leading noise bits), strips the repetitive preamble, then
    reverses the line coding.
    """
    sof_bits = bytes_to_bits(bytes([PREAMBLE_BYTE, SOF_BYTE]))
    start = _find_pattern(bits, sof_bits)
    if start is None:
        raise RadioError("no start-of-frame delimiter found in bit stream")
    data_bits = bits[start + len(sof_bits) :]
    if rate_kbaud <= 9.6:
        usable = len(data_bits) - len(data_bits) % 16
        data_bits = manchester_decode(data_bits[:usable])
    else:
        data_bits = data_bits[: len(data_bits) - len(data_bits) % 8]
    return bits_to_bytes(data_bits)


def _find_pattern(bits: List[int], pattern: List[int]) -> Optional[int]:
    """Index of the first match of *pattern* in *bits*.

    In a well-formed stream the preamble and SOF precede all data, so the
    first ``0x55 | 0xF0`` boundary is the true frame start; leading channel
    noise can in principle fake the pattern, which mirrors the real-world
    false-sync behaviour of a sub-GHz receiver.
    """
    n, m = len(bits), len(pattern)
    for i in range(n - m + 1):
        if bits[i : i + m] == pattern:
            return i
    return None


def airtime_seconds(frame_bytes: bytes, rate_kbaud: float, preamble_length: int = DEFAULT_PREAMBLE_LENGTH) -> float:
    """Transmission duration of a frame at *rate_kbaud*."""
    bits = (preamble_length + 1 + len(frame_bytes)) * 8
    if rate_kbaud <= 9.6:
        bits += len(frame_bytes) * 8  # Manchester doubles the data symbols.
    return bits / (rate_kbaud * 1000.0)

