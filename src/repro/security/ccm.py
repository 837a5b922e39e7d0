"""AES-CCM authenticated encryption (RFC 3610) for Z-Wave S2 payloads.

S2 protects the application payload with AES-128-CCM: CTR-mode encryption
plus a CBC-MAC tag binding the additional authenticated data (the MAC
header fields that travel in the clear — exactly why the paper's passive
scanner can still read home and node IDs from S2 traffic).
"""

from __future__ import annotations

from ..errors import AuthenticationError, CryptoError
from .aes import AES128

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


#: How many of its latest seals a :class:`Ccm` remembers for :meth:`Ccm.open`.
RECORD_SIZE = 4


class Ccm:
    """AES-CCM under one key: the key schedule is built once.

    Hold one where a key seals and opens many messages (an S2 network's
    CCM key is shared by every context on the network, so the receiver of
    a frame opens with the very object its sender sealed with).  The
    object keeps an immutable record of its last :data:`RECORD_SIZE`
    seals, ``(nonce, aad, blob, plaintext)``; :meth:`open` of an exact
    ``(nonce, aad, blob)`` in that record returns the recorded plaintext,
    which is what the full CTR and CBC-MAC check returns for it, since
    CCM is a deterministic function of key, nonce, aad and plaintext.
    Anything else runs the full check.  Two threads sealing at once can
    drop a record entry, which only costs a later open its shortcut.
    :func:`ccm_encrypt` / :func:`ccm_decrypt` are the one-shot forms.
    """

    def __init__(self, key: bytes):
        self._cipher = AES128(key)
        self._record: tuple = ()

    def seal(self, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
        """Encrypt and authenticate; returns ciphertext || tag."""
        if len(nonce) != NONCE_LENGTH:
            raise CryptoError(f"CCM nonce must be {NONCE_LENGTH} bytes, got {len(nonce)}")
        nonce, aad, plaintext = bytes(nonce), bytes(aad), bytes(plaintext)
        blob = self._cipher.encrypt_ctr(_a_block(nonce, 1), plaintext) + self._tag(
            nonce, aad, plaintext
        )
        self._record = ((nonce, aad, blob, plaintext),) + self._record[: RECORD_SIZE - 1]
        return blob

    def open(self, nonce: bytes, aad: bytes, blob: bytes) -> bytes:
        """Verify and decrypt ciphertext || tag; raises on a bad tag."""
        if len(nonce) != NONCE_LENGTH:
            raise CryptoError(f"CCM nonce must be {NONCE_LENGTH} bytes, got {len(nonce)}")
        if len(blob) < TAG_LENGTH:
            raise AuthenticationError("CCM blob shorter than the authentication tag")
        for sealed_nonce, sealed_aad, sealed_blob, plaintext in self._record:
            if sealed_blob == blob and sealed_nonce == nonce and sealed_aad == aad:
                return plaintext
        plaintext = self._cipher.encrypt_ctr(_a_block(nonce, 1), blob[:-TAG_LENGTH])
        expected = int.from_bytes(self._tag(nonce, aad, plaintext), "big")
        if expected ^ int.from_bytes(blob[-TAG_LENGTH:], "big"):
            raise AuthenticationError("CCM tag verification failed")
        return plaintext

    def _tag(self, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
        """CBC-MAC over B0 | padded AAD | padded plaintext, encrypted under A_0."""
        cipher = self._cipher
        mac = cipher.cbc_mac(_format_b0(nonce, len(aad), len(plaintext)) + _format_aad(aad) + plaintext)
        a0 = cipher.encrypt_block(_a_block(nonce, 0))
        return (
            int.from_bytes(mac[:TAG_LENGTH], "big") ^ int.from_bytes(a0[:TAG_LENGTH], "big")
        ).to_bytes(TAG_LENGTH, "big")


def ccm_encrypt(key: bytes, nonce: bytes, aad: bytes, plaintext: bytes) -> bytes:
    """Encrypt and authenticate; returns ciphertext || 8-byte tag."""
    return Ccm(key).seal(nonce, aad, plaintext)


def ccm_decrypt(key: bytes, nonce: bytes, aad: bytes, blob: bytes) -> bytes:
    """Verify and decrypt ciphertext || tag; raises on a bad tag."""
    return Ccm(key).open(nonce, aad, blob)
