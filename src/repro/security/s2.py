"""Security 2 (S2) transport encapsulation.

S2 "employs ECDH for secure key derivation and AES-128-CMAC for integrity"
(Section II-A1).  The reproduction implements the pieces the paper's attack
surface depends on:

* Curve25519 key agreement during inclusion (:class:`S2Bootstrap`),
* the SPAN (singlecast pre-agreed nonce) state machine seeded by a
  nonce-report exchange, and
* AES-CCM message encapsulation binding the clear MAC-header fields as
  additional authenticated data.

Crucially for the paper: **only the application payload is encrypted** —
home ID, source and destination travel in the clear, which is what lets
ZCover's passive scanner fingerprint an S2 network (Section III-B1), and a
receiver decides *per command class* whether to require encapsulation,
which is the specification flaw behind the CMDCL 0x01 attacks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import AuthenticationError, NonceError
from .ccm import NONCE_LENGTH
from .cmac import Cmac
from .curve25519 import public_key, shared_secret
from .kdf import ExpandedKeys, ckdf_expand, ckdf_temp_extract

#: S2 command class and commands carried inside command class 0x9F.
S2_CMDCL = 0x9F
CMD_NONCE_GET = 0x01
CMD_NONCE_REPORT = 0x02
CMD_MESSAGE_ENCAPSULATION = 0x03

#: Nonce-report flag: sender requests SPAN resynchronisation.
FLAG_SOS = 0x01

ENTROPY_SIZE = 16


#: Extension flag: a 16-byte SPAN extension (sender entropy) follows the
#: extensions byte.  A receiver that missed the handshake uses it to seed
#: its inbound SPAN.
EXT_SPAN = 0x01


@dataclass(frozen=True)
class S2Encapsulated:
    """A parsed S2 message-encapsulation body.

    Wire layout: ``seq | ext | [16-byte SPAN extension if ext & 0x01] |
    ciphertext || tag``.
    """

    seq_no: int
    extensions: int
    blob: bytes
    span_extension: bytes = b""

    def encode(self) -> bytes:
        return bytes([self.seq_no, self.extensions]) + self.span_extension + self.blob

    @classmethod
    def decode(cls, body: bytes) -> "S2Encapsulated":
        if len(body) < 2:
            raise AuthenticationError("S2 encapsulation body too short")
        seq_no, extensions = body[0], body[1]
        rest = body[2:]
        span_extension = b""
        if extensions & EXT_SPAN:
            if len(rest) < ENTROPY_SIZE:
                raise AuthenticationError("S2 SPAN extension truncated")
            span_extension, rest = rest[:ENTROPY_SIZE], rest[ENTROPY_SIZE:]
        return cls(
            seq_no=seq_no,
            extensions=extensions,
            blob=rest,
            span_extension=span_extension,
        )


class SpanState:
    """The pre-agreed nonce generator shared by one (sender, receiver) pair.

    Both ends mix their 16-byte entropy inputs through CMAC and then draw
    per-message nonces deterministically: ``nonce_i = CMAC(K_ps, MEI | i)``
    truncated to the 13-byte CCM nonce.  Identical state on both ends means
    no nonce ever travels with the message — an eavesdropper who missed the
    handshake cannot decrypt.
    """

    def __init__(self, personalization: Cmac, sender_entropy: bytes, receiver_entropy: bytes):
        if len(sender_entropy) != ENTROPY_SIZE or len(receiver_entropy) != ENTROPY_SIZE:
            raise NonceError("SPAN entropy inputs must be 16 bytes")
        self._mei_cmac = Cmac(personalization.tag(sender_entropy + receiver_entropy))
        self._counter = 0

    def next_nonce(self) -> bytes:
        """Draw the next 13-byte CCM nonce, advancing the state."""
        block = self._mei_cmac.tag(self._counter.to_bytes(4, "big"))
        self._counter += 1
        return block[:NONCE_LENGTH]

    def peek_nonce(self, offset: int = 0) -> bytes:
        """Compute a future nonce without advancing (receiver-side window)."""
        block = self._mei_cmac.tag((self._counter + offset).to_bytes(4, "big"))
        return block[:NONCE_LENGTH]

    def advance(self, count: int) -> None:
        """Skip *count* nonces (after a successful out-of-order decrypt)."""
        self._counter += count


class S2Context:
    """Per-device S2 state: expanded keys plus per-peer SPAN states."""

    #: How far ahead a receiver searches for a matching nonce before
    #: declaring desynchronisation.
    SPAN_WINDOW = 5

    def __init__(self, network_key: bytes, node_id: int, rng: Optional[random.Random] = None):
        self._keys: ExpandedKeys = ckdf_expand(network_key)
        self._node_id = node_id
        self._rng = rng or random.Random(0)
        self._spans: Dict[Tuple[int, int], SpanState] = {}
        self._pending_entropy: Dict[int, bytes] = {}
        self._seq = 0

    # -- handshake --------------------------------------------------------------

    def generate_entropy(self, peer: int) -> bytes:
        """Create and remember the local entropy half for *peer*."""
        entropy = bytes(self._rng.randrange(256) for _ in range(ENTROPY_SIZE))
        self._pending_entropy[peer] = entropy
        return entropy

    def establish_span(self, peer: int, sender_entropy: bytes, receiver_entropy: bytes, inbound: bool) -> None:
        """Instantiate the SPAN for traffic with *peer*.

        ``inbound=True`` registers the state used to *receive* from the
        peer; ``inbound=False`` the state used to *send*.
        """
        key = (peer, 0 if inbound else 1)
        self._spans[key] = SpanState(self._keys.personalization, sender_entropy, receiver_entropy)

    def has_span(self, peer: int, inbound: bool) -> bool:
        return (peer, 0 if inbound else 1) in self._spans

    def pending_entropy(self, peer: int) -> Optional[bytes]:
        return self._pending_entropy.get(peer)

    def reset_spans(self) -> None:
        """Drop all SPAN state (e.g. on device reset)."""
        self._spans.clear()
        self._pending_entropy.clear()

    # -- encapsulation ------------------------------------------------------------

    def _aad(self, src: int, dst: int, home_id: int, seq_no: int, length: int) -> bytes:
        return bytes([src, dst]) + home_id.to_bytes(4, "big") + bytes([seq_no, length & 0xFF])

    def encapsulate(self, plaintext: bytes, peer: int, src: int, dst: int, home_id: int) -> S2Encapsulated:
        """Encrypt *plaintext* toward *peer* under the outbound SPAN."""
        span = self._spans.get((peer, 1))
        if span is None:
            raise NonceError(f"no outbound SPAN established with node {peer}")
        seq_no = self._seq
        self._seq = (self._seq + 1) % 256
        nonce = span.next_nonce()
        aad = self._aad(src, dst, home_id, seq_no, len(plaintext))
        blob = self._keys.ccm.seal(nonce, aad, plaintext)
        return S2Encapsulated(seq_no=seq_no, extensions=0, blob=blob)

    def decapsulate(self, encap: S2Encapsulated, peer: int, src: int, dst: int, home_id: int) -> bytes:
        """Verify and decrypt an encapsulation from *peer*.

        Searches a small nonce window to tolerate lost frames; raises
        :class:`NonceError` on desynchronisation (the sender must then
        resynchronise through a nonce-report exchange).
        """
        span = self._spans.get((peer, 0))
        if span is None:
            raise NonceError(f"no inbound SPAN established with node {peer}")
        payload_len = len(encap.blob) - 8
        aad = self._aad(src, dst, home_id, encap.seq_no, max(payload_len, 0))
        ccm = self._keys.ccm
        for offset in range(self.SPAN_WINDOW):
            nonce = span.peek_nonce(offset)
            try:
                plaintext = ccm.open(nonce, aad, encap.blob)
            except AuthenticationError:
                continue
            span.advance(offset + 1)
            return plaintext
        raise NonceError("S2 SPAN desynchronised: no nonce in the window verified")


class S2Bootstrap:
    """The ECDH half of S2 inclusion: exchange public keys, derive keys.

    The DSK authentication pin (the first 16 bits of the joining node's
    public key, printed on the label) is modelled so the examples can show
    the full inclusion ceremony.
    """

    def __init__(self, rng: Optional[random.Random] = None):
        self._rng = rng or random.Random(0)
        self._private = bytes(self._rng.randrange(256) for _ in range(32))
        self.public = public_key(self._private)

    @property
    def dsk_pin(self) -> int:
        """The 5-digit DSK authentication pin derived from the public key."""
        return int.from_bytes(self.public[:2], "big")

    def derive_temp_key(self, peer_public: bytes, initiator: bool) -> bytes:
        """Derive the 16-byte temporary inclusion key from the exchange."""
        secret = shared_secret(self._private, peer_public)
        if initiator:
            prk = ckdf_temp_extract(secret, self.public, peer_public)
        else:
            prk = ckdf_temp_extract(secret, peer_public, self.public)
        return prk
