"""AES-CCM authenticated encryption (RFC 3610) for Z-Wave S2 payloads.

S2 protects the application payload with AES-128-CCM: CTR-mode encryption
plus a CBC-MAC tag binding the additional authenticated data (the MAC
header fields that travel in the clear — exactly why the paper's passive
scanner can still read home and node IDs from S2 traffic).
"""

from __future__ import annotations

from ..errors import AuthenticationError, CryptoError
from .aes import AES128, xor_bytes

#: CCM parameters used by S2: 8-byte tag, 2-byte length field, 13-byte nonce.
TAG_LENGTH = 8
LENGTH_FIELD = 2
NONCE_LENGTH = 15 - LENGTH_FIELD


def _format_b0(nonce: bytes, aad_len: int, msg_len: int) -> bytes:
    """Build the B0 block heading the CBC-MAC input."""
    flags = (0x40 if aad_len else 0x00) | (((TAG_LENGTH - 2) // 2) << 3) | (LENGTH_FIELD - 1)
    return bytes([flags]) + nonce + msg_len.to_bytes(LENGTH_FIELD, "big")


def _format_aad(aad: bytes) -> bytes:
    """Length-prefix and pad the additional authenticated data."""
    if not aad:
        return b""
    if len(aad) >= 0xFF00:
        raise CryptoError("CCM additional data too long for the short encoding")
    blob = len(aad).to_bytes(2, "big") + aad
    return blob + bytes(-len(blob) % 16)


def _a_block(nonce: bytes, counter: int) -> bytes:
    """Build the CTR-mode counter block A_i."""
    return bytes([LENGTH_FIELD - 1]) + nonce + counter.to_bytes(LENGTH_FIELD, "big")


def _compute_tag(cipher: AES128, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    """CBC-MAC over B0 | padded AAD | padded plaintext, truncated."""
    encrypt = cipher.encrypt_block
    mac_input = _format_b0(nonce, len(aad), len(plaintext)) + _format_aad(aad)
    mac_input += plaintext + bytes(-len(plaintext) % 16)
    mac = bytes(16)
    for offset in range(0, len(mac_input), 16):
        mac = encrypt(xor_bytes(mac, mac_input[offset : offset + 16]))
    # Tag is encrypted under A_0 per RFC 3610.
    a0 = encrypt(_a_block(nonce, 0))
    return xor_bytes(mac[:TAG_LENGTH], a0[:TAG_LENGTH])


def _ctr_crypt(cipher: AES128, nonce: bytes, data: bytes) -> bytes:
    """CTR keystream starting at counter 1 (counter 0 encrypts the tag)."""
    encrypt = cipher.encrypt_block
    out = bytearray()
    counter = 1
    for offset in range(0, len(data), 16):
        keystream = encrypt(_a_block(nonce, counter))
        chunk = data[offset : offset + 16]
        out += xor_bytes(chunk, keystream[: len(chunk)])
        counter += 1
    return bytes(out)


def ccm_seal(cipher: AES128, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    """Encrypt and authenticate under a held cipher; returns ciphertext || tag."""
    if len(nonce) != NONCE_LENGTH:
        raise CryptoError(f"CCM nonce must be {NONCE_LENGTH} bytes, got {len(nonce)}")
    tag = _compute_tag(cipher, nonce, aad, plaintext)
    return _ctr_crypt(cipher, nonce, plaintext) + tag


def ccm_open(cipher: AES128, nonce: bytes, aad: bytes, blob: bytes) -> bytes:
    """Verify and decrypt ciphertext || tag under a held cipher; raises on a bad tag."""
    if len(nonce) != NONCE_LENGTH:
        raise CryptoError(f"CCM nonce must be {NONCE_LENGTH} bytes, got {len(nonce)}")
    if len(blob) < TAG_LENGTH:
        raise AuthenticationError("CCM blob shorter than the authentication tag")
    ciphertext, tag = blob[:-TAG_LENGTH], blob[-TAG_LENGTH:]
    plaintext = _ctr_crypt(cipher, nonce, ciphertext)
    expected = _compute_tag(cipher, nonce, aad, plaintext)
    diff = 0
    for a, b in zip(expected, tag):
        diff |= a ^ b
    if diff:
        raise AuthenticationError("CCM tag verification failed")
    return plaintext


def ccm_encrypt(key: bytes, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    """Encrypt and authenticate; returns ciphertext || 8-byte tag."""
    return ccm_seal(AES128(key), nonce, aad, plaintext)


def ccm_decrypt(key: bytes, nonce: bytes, aad: bytes, blob: bytes) -> bytes:
    """Verify and decrypt ciphertext || tag; raises on a bad tag."""
    return ccm_open(AES128(key), nonce, aad, blob)
