"""Z-Wave frame integrity checks: CS-8 XOR checksum and CRC-16/AUG-CCITT.

Legacy (pre-100-series) Z-Wave frames carry a one-byte XOR checksum seeded
with ``0xFF``; newer chips use CRC-16 with the CCITT polynomial ``0x1021``
and initial value ``0x1D0F``.  Both are implemented here so the simulated
radio can interoperate with legacy and modern virtual devices, mirroring the
"CS-8/CRC-16" note in Section II-A1 of the paper.
"""

from __future__ import annotations

from typing import Iterable

CRC16_POLY = 0x1021
CRC16_INIT = 0x1D0F


def cs8(data: bytes | bytearray | Iterable[int]) -> int:
    """Return the legacy one-byte XOR checksum over *data*.

    The checksum is seeded with ``0xFF`` and XORs every byte of the frame
    (header plus payload, excluding the checksum byte itself).

    >>> hex(cs8(b"\\x01\\x02\\x03"))
    '0xff'
    """
    acc = 0xFF
    for byte in data:
        acc ^= byte & 0xFF
    return acc


def crc16(data: bytes | bytearray | Iterable[int]) -> int:
    """Return the CRC-16/AUG-CCITT checksum used by 100+-series chips.

    Polynomial ``0x1021``, initial value ``0x1D0F``, no reflection, no final
    XOR — the variant mandated by ITU-T G.9959 for R3 frames.
    """
    crc = CRC16_INIT
    for byte in data:
        crc ^= (byte & 0xFF) << 8
        for _ in range(8):
            if crc & 0x8000:
                crc = ((crc << 1) ^ CRC16_POLY) & 0xFFFF
            else:
                crc = (crc << 1) & 0xFFFF
    return crc
