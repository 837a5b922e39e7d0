"""AES-CMAC (RFC 4493) — the integrity primitive of Z-Wave Security 2.

S2 "employs ECDH for secure key derivation and AES-128-CMAC for integrity"
(Section II-A1).  The same primitive also drives the CKDF key-derivation
function in :mod:`repro.security.kdf`.
"""

from __future__ import annotations

from .aes import AES128, BLOCK_SIZE, xor_bytes

_RB = 0x87  # The GF(2^128) reduction constant of RFC 4493.


def _left_shift(block: bytes) -> bytes:
    """Shift a 16-byte block left by one bit."""
    value = int.from_bytes(block, "big")
    value = (value << 1) & ((1 << 128) - 1)
    return value.to_bytes(16, "big")


def _generate_subkeys(cipher: AES128) -> tuple:
    """Derive the K1/K2 subkeys from the zero block."""
    l_value = cipher.encrypt_block(bytes(BLOCK_SIZE))
    k1 = _left_shift(l_value)
    if l_value[0] & 0x80:
        k1 = k1[:-1] + bytes([k1[-1] ^ _RB])
    k2 = _left_shift(k1)
    if k1[0] & 0x80:
        k2 = k2[:-1] + bytes([k2[-1] ^ _RB])
    return k1, k2


class Cmac:
    """AES-CMAC under one key: the key schedule and K1/K2 are built once.

    Hold one where a key tags many messages (the S2 SPAN's MEI key draws a
    nonce per frame); :func:`aes_cmac` is the one-shot form.
    """

    def __init__(self, key: bytes):
        self._cipher = AES128(key)
        self._k1, self._k2 = _generate_subkeys(self._cipher)

    def tag(self, message: bytes) -> bytes:
        """Compute the 16-byte AES-CMAC tag of *message*."""
        encrypt = self._cipher.encrypt_block
        n_blocks = max(1, (len(message) + BLOCK_SIZE - 1) // BLOCK_SIZE)
        tail = message[(n_blocks - 1) * BLOCK_SIZE :]
        if len(tail) == BLOCK_SIZE:
            last = xor_bytes(tail, self._k1)
        else:
            last = xor_bytes(tail + b"\x80" + bytes(BLOCK_SIZE - len(tail) - 1), self._k2)
        mac = bytes(BLOCK_SIZE)
        for i in range(0, (n_blocks - 1) * BLOCK_SIZE, BLOCK_SIZE):
            mac = encrypt(xor_bytes(mac, message[i : i + BLOCK_SIZE]))
        return encrypt(xor_bytes(mac, last))


def aes_cmac(key: bytes, message: bytes) -> bytes:
    """Compute the 16-byte AES-CMAC tag of *message* under *key*."""
    return Cmac(key).tag(message)

