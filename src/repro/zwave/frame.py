"""Z-Wave MAC frame encoding and decoding (Figure 1 of the paper).

A frame is laid out as::

    H-ID(4) | SRC(1) | P1(1) | P2(1) | LEN(1) | DST(1) | APL payload | CS(1)

``LEN`` counts the whole frame including the checksum byte, matching the
G.9959 MPDU convention.  Decoding is strict by default (checksum and length
verified) but can be performed leniently for the sniffer, which must be able
to show malformed frames instead of dropping them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

from ..errors import ChecksumError, FrameError, FrameTooLargeError
from . import constants as const
from .checksum import cs8

#: Strict decodes keyed by raw bytes.  Every transmission is decoded once
#: per receiving endpoint (controller, slaves, attacker dongle), and ack /
#: NOP frames repeat verbatim throughout a campaign, so sharing the
#: immutable decoded instance removes most codec work from the hot loop.
#: Purely an allocation cache: equal raw bytes decode to equal frames, so
#: cache state can never alter behaviour.
_DECODE_CACHE: Dict[bytes, "ZWaveFrame"] = {}
_DECODE_CACHE_MAX = 4096


@dataclass(frozen=True)
class ZWaveFrame:
    """An immutable Z-Wave MAC frame.

    ``payload`` is the raw application-layer bytes (CMDCL | CMD | PARAMs).
    ``checksum`` is filled in automatically on encode when ``None``.
    """

    home_id: int
    src: int
    dst: int
    payload: bytes = b""
    header_type: int = const.HeaderType.SINGLECAST
    ack_request: bool = True
    low_power: bool = False
    speed_modified: bool = False
    routed: bool = False
    sequence: int = 0
    checksum: Optional[int] = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.home_id <= 0xFFFFFFFF:
            raise FrameError(f"home id {self.home_id:#x} out of 32-bit range")
        for label, value in (("src", self.src), ("dst", self.dst)):
            if not 0 <= value <= 0xFF:
                raise FrameError(f"{label} node id {value} out of byte range")
        if not 0 <= self.sequence <= 0x0F:
            raise FrameError(f"sequence {self.sequence} out of nibble range")
        total = const.MAC_HEADER_SIZE + len(self.payload) + const.CS8_TRAILER_SIZE
        if total > const.MAX_MAC_FRAME_SIZE:
            raise FrameTooLargeError(
                f"frame of {total} bytes exceeds the {const.MAX_MAC_FRAME_SIZE}-byte maximum"
            )

    # -- field helpers -------------------------------------------------------

    @property
    def p1(self) -> int:
        """The frame-control P1 byte: flags nibble | header type nibble."""
        flags = 0
        if self.routed:
            flags |= const.P1_ROUTED_FLAG
        if self.ack_request:
            flags |= const.P1_ACK_REQUEST_FLAG
        if self.low_power:
            flags |= const.P1_LOW_POWER_FLAG
        if self.speed_modified:
            flags |= const.P1_SPEED_MODIFIED_FLAG
        return flags | (self.header_type & 0x0F)

    @property
    def p2(self) -> int:
        """The frame-control P2 byte carrying the sequence number."""
        return self.sequence & const.P2_SEQUENCE_MASK

    @property
    def length(self) -> int:
        """The LEN field: total frame size including the checksum."""
        return const.MAC_HEADER_SIZE + len(self.payload) + const.CS8_TRAILER_SIZE

    @property
    def cmdcl(self) -> Optional[int]:
        """The application-layer command class, if a payload is present."""
        return self.payload[0] if self.payload else None

    @property
    def cmd(self) -> Optional[int]:
        """The application-layer command, if present."""
        return self.payload[1] if len(self.payload) >= 2 else None

    @property
    def params(self) -> bytes:
        """The application-layer parameter bytes (may be empty)."""
        return self.payload[2:]

    @property
    def is_ack(self) -> bool:
        """Whether this is a MAC-level acknowledgement frame."""
        return (self.header_type & 0x0F) == const.HeaderType.ACK

    @property
    def is_broadcast(self) -> bool:
        """Whether the frame is addressed to every node."""
        return self.dst == const.BROADCAST_NODE_ID

    # -- codec ----------------------------------------------------------------

    def encode(self) -> bytes:
        """Serialise the frame, computing the CS-8 checksum if unset.

        The serialisation is memoised on the (immutable) instance: the
        fuzzer, dongle and liveness monitor all encode the same frame
        object, and only the first call pays for the byte assembly.
        """
        raw = self.__dict__.get("_raw")
        if raw is not None:
            return raw
        body = bytearray()
        body += self.home_id.to_bytes(4, "big")
        body.append(self.src)
        body.append(self.p1)
        body.append(self.p2)
        body.append(self.length)
        body.append(self.dst)
        body += self.payload
        checksum = self.checksum if self.checksum is not None else cs8(body)
        body.append(checksum & 0xFF)
        raw = bytes(body)
        object.__setattr__(self, "_raw", raw)
        return raw

    @classmethod
    def decode(cls, raw: bytes, verify: bool = True) -> "ZWaveFrame":
        """Parse *raw* bytes into a frame.

        With ``verify=True`` the length field and checksum are enforced
        (``FrameError`` / ``ChecksumError`` on mismatch), which is how a
        device's MAC layer behaves.  With ``verify=False`` the sniffer-style
        best-effort parse accepts inconsistent frames.
        """
        raw = bytes(raw)  # no-op for bytes; makes bytearray input hashable
        if verify:
            cached = _DECODE_CACHE.get(raw)
            if cached is not None:
                return cached
        minimum = const.MAC_HEADER_SIZE + const.CS8_TRAILER_SIZE
        if len(raw) < minimum:
            raise FrameError(f"frame of {len(raw)} bytes is shorter than {minimum}")
        if len(raw) > const.MAX_MAC_FRAME_SIZE:
            raise FrameTooLargeError(f"frame of {len(raw)} bytes exceeds the MAC maximum")
        home_id = int.from_bytes(raw[const.HOME_ID_SLICE], "big")
        src = raw[const.SRC_OFFSET]
        p1 = raw[const.P1_OFFSET]
        p2 = raw[const.P2_OFFSET]
        length = raw[const.LEN_OFFSET]
        dst = raw[const.DST_OFFSET]
        payload = raw[const.APL_OFFSET : -1]
        checksum = raw[-1]
        if verify:
            if length != len(raw):
                raise FrameError(f"LEN field {length} disagrees with frame size {len(raw)}")
            expected = cs8(raw[:-1])
            if checksum != expected:
                raise ChecksumError(
                    f"checksum {checksum:#04x} does not match computed {expected:#04x}"
                )
        frame = cls(
            home_id=home_id,
            src=src,
            dst=dst,
            payload=bytes(payload),
            header_type=p1 & 0x0F,
            ack_request=bool(p1 & const.P1_ACK_REQUEST_FLAG),
            low_power=bool(p1 & const.P1_LOW_POWER_FLAG),
            speed_modified=bool(p1 & const.P1_SPEED_MODIFIED_FLAG),
            routed=bool(p1 & const.P1_ROUTED_FLAG),
            sequence=p2 & const.P2_SEQUENCE_MASK,
            checksum=checksum,
        )
        if verify:
            # A verified frame re-encodes to exactly *raw* (LEN and CS are
            # consistent by construction), so the codec memo can be seeded;
            # lenient parses may disagree with their re-encoding and are
            # never cached.
            object.__setattr__(frame, "_raw", raw)
            if len(_DECODE_CACHE) >= _DECODE_CACHE_MAX:
                _DECODE_CACHE.clear()
            _DECODE_CACHE[raw] = frame
        return frame

    # -- constructors ----------------------------------------------------------

    def reply(self, payload: bytes = b"", **overrides) -> "ZWaveFrame":
        """Build a frame back to this frame's sender on the same network."""
        fields = dict(
            home_id=self.home_id,
            src=self.dst if self.dst != const.BROADCAST_NODE_ID else self.src,
            dst=self.src,
            payload=payload,
            sequence=self.sequence,
        )
        fields.update(overrides)
        return ZWaveFrame(**fields)

    def ack(self) -> "ZWaveFrame":
        """Build the MAC acknowledgement for this frame."""
        return self.reply(
            b"", header_type=const.HeaderType.ACK, ack_request=False
        )

    def with_payload(self, payload: bytes) -> "ZWaveFrame":
        """Return a copy carrying *payload* (checksum recomputed on encode)."""
        return replace(self, payload=payload, checksum=None)


class FrameView:
    """A zero-copy lazy view over raw MAC frame bytes.

    The sniffer-side twin of :meth:`ZWaveFrame.decode(verify=False)
    <ZWaveFrame.decode>`: it exposes the same read-only field API but
    performs **no** parsing up front — each field is decoded from the
    underlying buffer only when a handler or oracle touches it.  The
    capture path allocates one of these per sniffed frame, so the common
    consumers (the scanners' ack and dst filters) read two or three bytes
    instead of paying a full dataclass decode.

    Lifetime rule: the view borrows ``raw`` — it never copies the buffer.
    ``raw`` is ``bytes`` everywhere in the tree (immutable), so views may
    be held indefinitely; if a caller ever constructs one over a mutable
    ``memoryview``/``bytearray``, the view is only valid until the buffer
    mutates.  :meth:`to_frame` materialises an eager, owning
    :class:`ZWaveFrame` when dataclass semantics are needed.

    Construct through :func:`lenient_view`, which applies exactly the
    length checks under which the lenient decode would have failed.
    """

    __slots__ = ("raw", "_payload")

    def __init__(self, raw: bytes):
        self.raw = raw
        self._payload: Optional[bytes] = None

    # -- lazy field decode ----------------------------------------------------

    @property
    def home_id(self) -> int:
        return int.from_bytes(self.raw[const.HOME_ID_SLICE], "big")

    @property
    def src(self) -> int:
        return self.raw[const.SRC_OFFSET]

    @property
    def dst(self) -> int:
        return self.raw[const.DST_OFFSET]

    @property
    def p1(self) -> int:
        return self.raw[const.P1_OFFSET]

    @property
    def p2(self) -> int:
        return self.raw[const.P2_OFFSET]

    @property
    def header_type(self) -> int:
        return self.raw[const.P1_OFFSET] & 0x0F

    @property
    def ack_request(self) -> bool:
        return bool(self.raw[const.P1_OFFSET] & const.P1_ACK_REQUEST_FLAG)

    @property
    def low_power(self) -> bool:
        return bool(self.raw[const.P1_OFFSET] & const.P1_LOW_POWER_FLAG)

    @property
    def speed_modified(self) -> bool:
        return bool(self.raw[const.P1_OFFSET] & const.P1_SPEED_MODIFIED_FLAG)

    @property
    def routed(self) -> bool:
        return bool(self.raw[const.P1_OFFSET] & const.P1_ROUTED_FLAG)

    @property
    def sequence(self) -> int:
        return self.raw[const.P2_OFFSET] & const.P2_SEQUENCE_MASK

    @property
    def checksum(self) -> int:
        return self.raw[-1]

    @property
    def length(self) -> int:
        # A decoded frame's ``length`` is computed from its payload, which
        # the lenient parse slices out of the buffer — so it always equals
        # the buffer size, whatever the (unverified) LEN field claims.
        return len(self.raw)

    @property
    def is_ack(self) -> bool:
        return (self.raw[const.P1_OFFSET] & 0x0F) == const.HeaderType.ACK

    @property
    def is_broadcast(self) -> bool:
        return self.raw[const.DST_OFFSET] == const.BROADCAST_NODE_ID

    @property
    def payload(self) -> bytes:
        """The APL bytes, sliced out of the buffer on first touch."""
        payload = self._payload
        if payload is None:
            payload = self._payload = bytes(self.raw[const.APL_OFFSET:-1])
        return payload

    @property
    def cmdcl(self) -> Optional[int]:
        if len(self.raw) <= const.APL_OFFSET + 1:
            return None  # empty payload
        return self.raw[const.APL_OFFSET]

    @property
    def cmd(self) -> Optional[int]:
        if len(self.raw) <= const.APL_OFFSET + 2:
            return None
        return self.raw[const.APL_OFFSET + 1]

    @property
    def params(self) -> bytes:
        return self.payload[2:]

    # -- materialisation -------------------------------------------------------

    def to_frame(self) -> ZWaveFrame:
        """Eagerly decode into a full (owning) :class:`ZWaveFrame`."""
        return ZWaveFrame.decode(self.raw, verify=False)

    def __repr__(self) -> str:
        return f"FrameView({self.raw.hex()})"


def dissectable(raw: bytes) -> bool:
    """Whether ``ZWaveFrame.decode(raw, verify=False)`` would succeed.

    It fails exactly when the buffer is shorter than the MAC header plus
    checksum, or longer than the MAC maximum.  (The lenient parse
    enforces nothing else — every in-range buffer dissects.)
    """
    return const.MAC_HEADER_SIZE + const.CS8_TRAILER_SIZE <= len(raw) <= const.MAX_MAC_FRAME_SIZE


def lenient_view(raw: bytes) -> Optional[FrameView]:
    """Wrap *raw* in a :class:`FrameView`, or ``None`` if not :func:`dissectable`."""
    return FrameView(raw) if dissectable(raw) else None


def is_raw_ack(raw: bytes, src: int, dst: int) -> bool:
    """Whether *raw* is a MAC ACK from node *src* to node *dst*.

    What testing ``lenient_view(raw)`` for ``is_ack``, ``src`` and
    ``dst`` decides, read straight off the buffer without building a view.
    """
    return (
        dissectable(raw)
        and raw[const.P1_OFFSET] & 0x0F == const.HeaderType.ACK
        and raw[const.SRC_OFFSET] == src
        and raw[const.DST_OFFSET] == dst
    )


def make_singlecast(
    home_id: int, src: int, dst: int, payload: bytes, sequence: int = 0
) -> ZWaveFrame:
    """Convenience constructor for an ordinary data frame."""
    return ZWaveFrame(
        home_id=home_id, src=src, dst=dst, payload=payload, sequence=sequence
    )


def make_nop(home_id: int, src: int, dst: int, sequence: int = 0) -> ZWaveFrame:
    """Build the NOP "ping" frame used for liveness monitoring.

    Section IV-A: "we assess test cases by monitoring controller liveliness
    using NOP ping packets."  A NOP is a singlecast frame whose payload is
    the single byte 0x00.
    """
    return ZWaveFrame(
        home_id=home_id,
        src=src,
        dst=dst,
        payload=bytes([const.NOP_CMDCL]),
        sequence=sequence,
    )
