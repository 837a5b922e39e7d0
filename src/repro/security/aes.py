"""Pure-Python AES-128 block cipher (FIPS-197).

Z-Wave's S0 and S2 transports are built entirely on AES-128 (AES-OFB for S0
payload encryption, AES-CMAC for S2 integrity, AES-CCM for S2 payload
protection, AES-CTR inside the key-derivation function).  No third-party
crypto package is assumed, so the block cipher is implemented here from the
standard; it is validated against the FIPS-197 appendix vectors and the
SP 800-38A ECB vectors in the test suite.

Encryption is the hot path of every S2 frame, so it uses the standard
32-bit T-table formulation: four 256-entry tables, built once at import
from the S-box, fold SubBytes, ShiftRows and MixColumns of one round into
four lookups and XORs per column.  Decryption is never used by the
simulator's transports and keeps the step-by-step FIPS-197 form, which the
tests use as an independent inverse of the table-driven encryption.
"""

from __future__ import annotations

import struct
from typing import List

from ..errors import CryptoError

BLOCK_SIZE = 16
KEY_SIZE = 16
ROUNDS = 10

_WORDS = struct.Struct(">4I")

# -- tables -------------------------------------------------------------------


def _build_sbox() -> tuple:
    """Construct the AES S-box from the finite-field definition."""
    # Multiplicative inverses in GF(2^8) via exponentiation tables on the
    # generator 3.
    exp = [0] * 512
    log = [0] * 256
    x = 1
    for i in range(255):
        exp[i] = x
        log[x] = i
        x ^= (x << 1) ^ (0x11B if x & 0x80 else 0)
        x &= 0xFF
    for i in range(255, 512):
        exp[i] = exp[i - 255]

    def inverse(b: int) -> int:
        return 0 if b == 0 else exp[255 - log[b]]

    sbox = []
    for value in range(256):
        b = inverse(value)
        s = b
        for _ in range(4):
            b = ((b << 1) | (b >> 7)) & 0xFF
            s ^= b
        sbox.append(s ^ 0x63)
    return tuple(sbox)


def _invert(table: tuple) -> tuple:
    inverse = [0] * 256
    for index, value in enumerate(table):
        inverse[value] = index
    return tuple(inverse)


SBOX = _build_sbox()
INV_SBOX = _invert(SBOX)

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(value: int) -> int:
    """Multiply by x (i.e. 2) in GF(2^8)."""
    value <<= 1
    if value & 0x100:
        value ^= 0x11B
    return value & 0xFF


def _mul(a: int, b: int) -> int:
    """Multiply two field elements in GF(2^8)."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


def _build_round_tables() -> tuple:
    """The four encryption T-tables.

    A column word is big-endian (row 0 in the top byte).  ``T0[x]`` is the
    MixColumns image of a column holding ``S(x)`` in row 0 and zeros
    elsewhere, i.e. the word ``(2s, s, s, 3s)``; ``T1``..``T3`` are its
    byte rotations for rows 1..3.
    """
    t0 = []
    for x in range(256):
        s = SBOX[x]
        s2 = _xtime(s)
        t0.append((s2 << 24) | (s << 16) | (s << 8) | (s2 ^ s))
    t1 = [(w >> 8) | ((w & 0xFF) << 24) for w in t0]
    t2 = [(w >> 8) | ((w & 0xFF) << 24) for w in t1]
    t3 = [(w >> 8) | ((w & 0xFF) << 24) for w in t2]
    return tuple(t0), tuple(t1), tuple(t2), tuple(t3)


_T0, _T1, _T2, _T3 = _build_round_tables()


# -- key schedule --------------------------------------------------------------


def _key_words(key: bytes) -> tuple:
    """Expand a 16-byte key into the 44 big-endian words of FIPS-197 §5.2."""
    if len(key) != KEY_SIZE:
        raise CryptoError(f"AES-128 requires a 16-byte key, got {len(key)}")
    sbox = SBOX
    words = list(_WORDS.unpack(key))
    for rcon in RCON:
        t = words[-1]
        w0 = words[-4] ^ (
            (sbox[(t >> 16) & 0xFF] ^ rcon) << 24
            | sbox[(t >> 8) & 0xFF] << 16
            | sbox[t & 0xFF] << 8
            | sbox[t >> 24]
        )
        w1 = words[-3] ^ w0
        w2 = words[-2] ^ w1
        w3 = words[-1] ^ w2
        words += (w0, w1, w2, w3)
    return tuple(words)


def _byte_rows(words: tuple) -> List[List[int]]:
    """View 44 schedule words as 11 round keys of 16 byte values each."""
    return [list(_WORDS.pack(*words[i : i + 4])) for i in range(0, len(words), 4)]


def expand_key(key: bytes) -> List[List[int]]:
    """Expand a 16-byte key into the 11 round keys (as 16-byte lists)."""
    return _byte_rows(_key_words(key))


# -- inverse round operations (decryption keeps the FIPS-197 step form) ---------


def _add_round_key(state: List[int], round_key: List[int]) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def _inv_sub_bytes(state: List[int]) -> None:
    for i in range(16):
        state[i] = INV_SBOX[state[i]]


# State is kept column-major (byte i belongs to row i % 4, column i // 4),
# matching the FIPS-197 byte ordering of the input block.


def _inv_shift_rows(state: List[int]) -> None:
    for row in range(1, 4):
        column_values = [state[row + 4 * col] for col in range(4)]
        shifted = column_values[-row:] + column_values[:-row]
        for col in range(4):
            state[row + 4 * col] = shifted[col]


def _inv_mix_columns(state: List[int]) -> None:
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        state[4 * col + 0] = _mul(a[0], 14) ^ _mul(a[1], 11) ^ _mul(a[2], 13) ^ _mul(a[3], 9)
        state[4 * col + 1] = _mul(a[0], 9) ^ _mul(a[1], 14) ^ _mul(a[2], 11) ^ _mul(a[3], 13)
        state[4 * col + 2] = _mul(a[0], 13) ^ _mul(a[1], 9) ^ _mul(a[2], 14) ^ _mul(a[3], 11)
        state[4 * col + 3] = _mul(a[0], 11) ^ _mul(a[1], 13) ^ _mul(a[2], 9) ^ _mul(a[3], 14)


# -- public API -----------------------------------------------------------------


def xor_bytes(a: bytes, b: bytes) -> bytes:
    """XOR two byte strings of equal length (one int XOR, not a byte loop)."""
    return (int.from_bytes(a, "big") ^ int.from_bytes(b, "big")).to_bytes(len(a), "big")


class AES128:
    """AES-128 with a pre-expanded key schedule."""

    def __init__(self, key: bytes):
        self._words = _key_words(key)

    def encrypt_block(self, block: bytes) -> bytes:
        """Encrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        t0, t1, t2, t3 = _T0, _T1, _T2, _T3
        rk = self._words
        s0, s1, s2, s3 = _WORDS.unpack(block)
        s0 ^= rk[0]
        s1 ^= rk[1]
        s2 ^= rk[2]
        s3 ^= rk[3]
        for i in range(4, 40, 4):
            s0, s1, s2, s3 = (
                t0[s0 >> 24] ^ t1[(s1 >> 16) & 0xFF] ^ t2[(s2 >> 8) & 0xFF] ^ t3[s3 & 0xFF] ^ rk[i],
                t0[s1 >> 24] ^ t1[(s2 >> 16) & 0xFF] ^ t2[(s3 >> 8) & 0xFF] ^ t3[s0 & 0xFF] ^ rk[i + 1],
                t0[s2 >> 24] ^ t1[(s3 >> 16) & 0xFF] ^ t2[(s0 >> 8) & 0xFF] ^ t3[s1 & 0xFF] ^ rk[i + 2],
                t0[s3 >> 24] ^ t1[(s0 >> 16) & 0xFF] ^ t2[(s1 >> 8) & 0xFF] ^ t3[s2 & 0xFF] ^ rk[i + 3],
            )
        # Final round: SubBytes and ShiftRows without MixColumns.
        sb = SBOX
        return _WORDS.pack(
            (sb[s0 >> 24] << 24 | sb[(s1 >> 16) & 0xFF] << 16
             | sb[(s2 >> 8) & 0xFF] << 8 | sb[s3 & 0xFF]) ^ rk[40],
            (sb[s1 >> 24] << 24 | sb[(s2 >> 16) & 0xFF] << 16
             | sb[(s3 >> 8) & 0xFF] << 8 | sb[s0 & 0xFF]) ^ rk[41],
            (sb[s2 >> 24] << 24 | sb[(s3 >> 16) & 0xFF] << 16
             | sb[(s0 >> 8) & 0xFF] << 8 | sb[s1 & 0xFF]) ^ rk[42],
            (sb[s3 >> 24] << 24 | sb[(s0 >> 16) & 0xFF] << 16
             | sb[(s1 >> 8) & 0xFF] << 8 | sb[s2 & 0xFF]) ^ rk[43],
        )

    def decrypt_block(self, block: bytes) -> bytes:
        """Decrypt one 16-byte block."""
        if len(block) != BLOCK_SIZE:
            raise CryptoError(f"AES block must be 16 bytes, got {len(block)}")
        round_keys = _byte_rows(self._words)
        state = list(block)
        _add_round_key(state, round_keys[ROUNDS])
        for r in range(ROUNDS - 1, 0, -1):
            _inv_shift_rows(state)
            _inv_sub_bytes(state)
            _add_round_key(state, round_keys[r])
            _inv_mix_columns(state)
        _inv_shift_rows(state)
        _inv_sub_bytes(state)
        _add_round_key(state, round_keys[0])
        return bytes(state)

    # -- modes of operation ----------------------------------------------------

    def encrypt_ofb(self, iv: bytes, data: bytes) -> bytes:
        """AES-OFB keystream encryption (S0 payload protection).

        OFB is symmetric: applying it twice with the same IV recovers the
        plaintext, so this method also decrypts.
        """
        if len(iv) != BLOCK_SIZE:
            raise CryptoError(f"OFB IV must be 16 bytes, got {len(iv)}")
        out = bytearray()
        feedback = iv
        for offset in range(0, len(data), BLOCK_SIZE):
            feedback = self.encrypt_block(feedback)
            chunk = data[offset : offset + BLOCK_SIZE]
            out += xor_bytes(chunk, feedback[: len(chunk)])
        return bytes(out)

    decrypt_ofb = encrypt_ofb

    def encrypt_ctr(self, nonce: bytes, data: bytes) -> bytes:
        """AES-CTR keystream encryption over a 16-byte initial counter."""
        if len(nonce) != BLOCK_SIZE:
            raise CryptoError(f"CTR nonce must be 16 bytes, got {len(nonce)}")
        out = bytearray()
        counter = int.from_bytes(nonce, "big")
        for offset in range(0, len(data), BLOCK_SIZE):
            keystream = self.encrypt_block(counter.to_bytes(16, "big"))
            chunk = data[offset : offset + BLOCK_SIZE]
            out += xor_bytes(chunk, keystream[: len(chunk)])
            counter = (counter + 1) % (1 << 128)
        return bytes(out)

    decrypt_ctr = encrypt_ctr

    def cbc_mac(self, data: bytes) -> bytes:
        """Raw CBC-MAC over zero-padded *data* (building block for S0 auth)."""
        mac = bytes(BLOCK_SIZE)
        padded = data + bytes(-len(data) % BLOCK_SIZE)
        for offset in range(0, len(padded), BLOCK_SIZE):
            mac = self.encrypt_block(xor_bytes(mac, padded[offset : offset + BLOCK_SIZE]))
        return mac
