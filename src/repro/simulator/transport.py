"""Message-level secure transports for the simulated devices.

The crypto contexts in :mod:`repro.security` implement the *primitives*;
this module implements the over-the-air *protocols* both a controller and a
slave run so that legitimate encrypted traffic flows through the medium:

* :class:`S2Messaging` — the SPAN handshake (NONCE_GET / NONCE_REPORT with
  16-byte entropy) followed by MESSAGE_ENCAPSULATION, with the first
  encapsulation of a fresh SPAN carrying the sender's entropy in the SPAN
  extension so the receiver can synchronise;
* :class:`S0Messaging` — the classic nonce-request dance (NONCE_GET →
  NONCE_REPORT → MESSAGE_ENCAPSULATION).

Both are transport-only state machines: they call back into their owner to
actually transmit frames and to consume decapsulated payloads, so the
virtual controller and the virtual slaves share one implementation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict

from ..errors import AuthenticationError, FrameError, NonceError
from ..security import s0 as s0mod
from ..security import s2 as s2mod
from ..security.s0 import S0Context, S0Encapsulated
from ..security.s2 import ENTROPY_SIZE, EXT_SPAN, S2Context, S2Encapsulated
from ..zwave.application import ApplicationPayload

#: Callback used to transmit an application payload to a peer node.
SendPayload = Callable[[int, ApplicationPayload], None]
#: Callback invoked with a successfully decapsulated inner payload.
DeliverInner = Callable[[int, ApplicationPayload], None]

#: The command classes the secure transports own (S2 0x9F, S0 0x98).
#: Receivers gate on this before invoking the handlers at all — every
#: other class can skip both state machines without a call.  Mirrors the
#: ``handle()`` guards below; a payload outside these classes is always
#: left unconsumed.
TRANSPORT_CMDCLS = frozenset((0x9F, 0x98))


@dataclass
class TransportStats:
    """Counters for one secure-messaging endpoint."""

    handshakes: int = 0
    sent_encapsulated: int = 0
    received_encapsulated: int = 0
    auth_failures: int = 0


class S2Messaging:
    """The S2 message protocol bound to one node's :class:`S2Context`."""

    def __init__(
        self,
        context: S2Context,
        home_id: int,
        node_id: int,
        send: SendPayload,
        deliver: DeliverInner,
    ):
        self._ctx = context
        self._home_id = home_id
        self._node_id = node_id
        self._send = send
        self._deliver = deliver
        self._outbox: Dict[int, Deque[ApplicationPayload]] = {}
        self._fresh_span_peers: set = set()
        self._awaiting_nonce: set = set()
        self._seq = 0
        self.stats = TransportStats()

    # -- sending ------------------------------------------------------------------

    def send_secure(self, dst: int, inner: ApplicationPayload) -> None:
        """Encrypt *inner* toward *dst*, handshaking first if needed."""
        if self._ctx.has_span(dst, inbound=False):
            self._transmit_encapsulated(dst, inner)
            return
        self._outbox.setdefault(dst, deque()).append(inner)
        self._request_nonce(dst)

    def _request_nonce(self, dst: int) -> None:
        # One outstanding handshake per peer: a second NONCE_GET would make
        # the peer regenerate its entropy and desynchronise the SPAN.
        if dst in self._awaiting_nonce:
            return
        self._awaiting_nonce.add(dst)
        self._seq = (self._seq + 1) % 256
        self._send(dst, ApplicationPayload(0x9F, 0x01, bytes([self._seq])))

    def _transmit_encapsulated(self, dst: int, inner: ApplicationPayload) -> None:
        encap = self._ctx.encapsulate(
            inner.encode(), peer=dst, src=self._node_id, dst=dst, home_id=self._home_id
        )
        extensions = encap.extensions
        span_extension = b""
        if dst in self._fresh_span_peers:
            # First message on a fresh SPAN: ship our entropy so the peer
            # can derive the same nonce stream.
            entropy = self._ctx.pending_entropy(dst)
            if entropy is not None:
                extensions |= EXT_SPAN
                span_extension = entropy
            self._fresh_span_peers.discard(dst)
        wire = S2Encapsulated(
            seq_no=encap.seq_no,
            extensions=extensions,
            blob=encap.blob,
            span_extension=span_extension,
        )
        self._send(dst, ApplicationPayload(0x9F, 0x03, wire.encode()))
        self.stats.sent_encapsulated += 1

    # -- receiving ------------------------------------------------------------------

    def handle(self, src: int, payload: ApplicationPayload) -> bool:
        """Process an S2 transport payload; ``True`` when consumed.

        Only *well-formed* transport messages are consumed: a NONCE_GET
        must carry its sequence byte, an encapsulation its body.  Anything
        malformed falls through to the caller (where, on a vulnerable
        controller, the Table III predicates take over).
        """
        if payload.cmdcl != 0x9F or payload.cmd is None:
            return False
        if payload.cmd == 0x01 and len(payload.params) >= 1:
            self._answer_nonce_get(src, payload.params[0])
            return True
        if payload.cmd == 0x02 and len(payload.params) >= 2 + ENTROPY_SIZE:
            self._consume_nonce_report(src, payload.params)
            return True
        if payload.cmd == 0x03 and len(payload.params) >= 1:
            return self._consume_encapsulation(src, payload)
        return False

    def _answer_nonce_get(self, src: int, seq_no: int) -> None:
        entropy = self._ctx.generate_entropy(src)
        body = bytes([seq_no, s2mod.FLAG_SOS]) + entropy
        self._send(src, ApplicationPayload(0x9F, 0x02, body))
        self.stats.handshakes += 1

    def _consume_nonce_report(self, src: int, params: bytes) -> None:
        self._awaiting_nonce.discard(src)
        receiver_entropy = params[2 : 2 + ENTROPY_SIZE]
        sender_entropy = self._ctx.generate_entropy(src)
        self._ctx.establish_span(src, sender_entropy, receiver_entropy, inbound=False)
        self._fresh_span_peers.add(src)
        outbox = self._outbox.pop(src, deque())
        while outbox:
            self._transmit_encapsulated(src, outbox.popleft())

    def _consume_encapsulation(self, src: int, payload: ApplicationPayload) -> bool:
        try:
            wire = S2Encapsulated.decode(payload.params)
        except AuthenticationError:
            self.stats.auth_failures += 1
            return True
        if wire.span_extension and not self._ctx.has_span(src, inbound=True):
            ours = self._ctx.pending_entropy(src)
            if ours is None:
                return True
            self._ctx.establish_span(src, wire.span_extension, ours, inbound=True)
        try:
            inner_bytes = self._ctx.decapsulate(
                S2Encapsulated(wire.seq_no, wire.extensions & ~EXT_SPAN, wire.blob),
                peer=src,
                src=src,
                dst=self._node_id,
                home_id=self._home_id,
            )
        except (AuthenticationError, NonceError):
            self.stats.auth_failures += 1
            return True
        self.stats.received_encapsulated += 1
        try:
            inner = ApplicationPayload.decode(inner_bytes)
        except FrameError:
            return True
        self._deliver(src, inner)
        return True


class S0Messaging:
    """The S0 nonce-request protocol bound to one node's :class:`S0Context`:
    the receiving side only, since no simulated node sends S0."""

    def __init__(
        self,
        context: S0Context,
        node_id: int,
        send: SendPayload,
        deliver: DeliverInner,
    ):
        self._ctx = context
        self._node_id = node_id
        self._send = send
        self._deliver = deliver
        self.stats = TransportStats()

    def handle(self, src: int, payload: ApplicationPayload) -> bool:
        """Process an S0 transport payload; ``True`` when consumed."""
        if payload.cmdcl != 0x98 or payload.cmd is None:
            return False
        if payload.cmd == s0mod.CMD_NONCE_GET:
            nonce = self._ctx.issue_nonce()
            self._send(src, ApplicationPayload(0x98, s0mod.CMD_NONCE_REPORT, nonce))
            self.stats.handshakes += 1
            return True
        if payload.cmd == s0mod.CMD_NONCE_REPORT and len(payload.params) == s0mod.NONCE_SIZE:
            return True  # this node never sends S0, so no nonce was asked for
        if payload.cmd == s0mod.CMD_MESSAGE_ENCAPSULATION:
            try:
                encap = S0Encapsulated.decode(payload.params)
                inner_bytes = self._ctx.decapsulate(encap, src=src, dst=self._node_id)
            except (AuthenticationError, NonceError):
                self.stats.auth_failures += 1
                return True
            self.stats.received_encapsulated += 1
            try:
                inner = ApplicationPayload.decode(inner_bytes)
            except FrameError:
                return True
            self._deliver(src, inner)
            return True
        return False
