"""Security 0 (S0) transport encapsulation.

S0 "uses AES-128 encryption but is susceptible to MITM attacks due to a
fixed temporary key during key exchange" (Section II-A1).  The working
scheme, reproduced here:

* the receiver hands out single-use 8-byte nonces (``NONCE_GET`` /
  ``NONCE_REPORT``),
* the sender encrypts the payload with AES-OFB under
  ``IV = sender_nonce || receiver_nonce``, and
* an 8-byte truncated CBC-MAC binds the security header and the
  source/destination addresses.

The famous S0 downgrade weakness is modelled faithfully: during inclusion
the network key itself is sent encrypted under the all-zero temporary key
(:data:`TEMP_KEY`), which is why a sniffer present at inclusion time owns
the network.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import AuthenticationError, NonceError
from .kdf import s0_keys

#: S0 command class and commands carried inside command class 0x98.
S0_CMDCL = 0x98
CMD_NONCE_GET = 0x40
CMD_NONCE_REPORT = 0x80
CMD_MESSAGE_ENCAPSULATION = 0x81
CMD_NETWORK_KEY_SET = 0x06

#: The fixed all-zero temporary key used during S0 inclusion — the root of
#: the Fouladi & Ghanoun MITM finding the paper cites.
TEMP_KEY = bytes(16)

NONCE_SIZE = 8
MAC_SIZE = 8

#: How many outstanding nonces a receiver remembers.
NONCE_TABLE_SIZE = 8


@dataclass(frozen=True)
class S0Encapsulated:
    """A parsed S0 message-encapsulation body."""

    sender_nonce: bytes
    ciphertext: bytes
    receiver_nonce_id: int
    mac: bytes

    def encode(self) -> bytes:
        return (
            self.sender_nonce
            + self.ciphertext
            + bytes([self.receiver_nonce_id])
            + self.mac
        )

    @classmethod
    def decode(cls, body: bytes) -> "S0Encapsulated":
        if len(body) < NONCE_SIZE + 1 + MAC_SIZE:
            raise AuthenticationError("S0 encapsulation body too short")
        sender_nonce = body[:NONCE_SIZE]
        mac = body[-MAC_SIZE:]
        receiver_nonce_id = body[-MAC_SIZE - 1]
        ciphertext = body[NONCE_SIZE : -MAC_SIZE - 1]
        return cls(sender_nonce, ciphertext, receiver_nonce_id, mac)


class S0Context:
    """Per-device S0 state: keys plus the outstanding-nonce table."""

    def __init__(self, network_key: bytes, rng: Optional[random.Random] = None):
        keys = s0_keys(network_key)
        self._cipher, self._auth = keys.enc, keys.auth
        self._rng = rng or random.Random(0)
        self._issued: Dict[int, bytes] = {}

    # -- nonce management -----------------------------------------------------

    def issue_nonce(self) -> bytes:
        """Generate, remember and return a fresh receiver nonce."""
        nonce = bytes(self._rng.randrange(256) for _ in range(NONCE_SIZE))
        if len(self._issued) >= NONCE_TABLE_SIZE:
            oldest = next(iter(self._issued))
            del self._issued[oldest]
        self._issued[nonce[0]] = nonce
        return nonce

    def consume_nonce(self, nonce_id: int) -> bytes:
        """Return and forget the outstanding nonce with first byte *nonce_id*."""
        nonce = self._issued.pop(nonce_id, None)
        if nonce is None:
            raise NonceError(f"no outstanding S0 nonce with id {nonce_id:#04x}")
        return nonce

    @property
    def outstanding_nonces(self) -> int:
        return len(self._issued)

    # -- encapsulation ----------------------------------------------------------

    def _mac(self, header: bytes, sender_nonce: bytes, receiver_nonce: bytes, ciphertext: bytes) -> bytes:
        # CBC-MAC whose first block is the IV, i.e. E(IV) chained over the
        # zero-padded header and ciphertext.
        return self._auth.cbc_mac(sender_nonce + receiver_nonce + header + ciphertext)[:MAC_SIZE]

    def encapsulate(
        self, plaintext: bytes, receiver_nonce: bytes, src: int, dst: int
    ) -> S0Encapsulated:
        """Encrypt *plaintext* for (src → dst) using *receiver_nonce*."""
        sender_nonce = bytes(self._rng.randrange(256) for _ in range(NONCE_SIZE))
        iv = sender_nonce + receiver_nonce
        ciphertext = self._cipher.encrypt_ofb(iv, plaintext)
        header = bytes([CMD_MESSAGE_ENCAPSULATION, src, dst, len(ciphertext)])
        mac = self._mac(header, sender_nonce, receiver_nonce, ciphertext)
        return S0Encapsulated(sender_nonce, ciphertext, receiver_nonce[0], mac)

    def decapsulate(self, encap: S0Encapsulated, src: int, dst: int) -> bytes:
        """Verify and decrypt an encapsulation addressed (src → dst)."""
        receiver_nonce = self.consume_nonce(encap.receiver_nonce_id)
        header = bytes([CMD_MESSAGE_ENCAPSULATION, src, dst, len(encap.ciphertext)])
        expected = self._mac(header, encap.sender_nonce, receiver_nonce, encap.ciphertext)
        if expected != encap.mac:
            raise AuthenticationError("S0 MAC verification failed")
        iv = encap.sender_nonce + receiver_nonce
        return self._cipher.decrypt_ofb(iv, encap.ciphertext)
