"""Mesh routing: routed singlecast frames and repeater nodes.

Z-Wave is "a low bandwidth, low-power *mesh* protocol" (Section II-A): a
frame whose sender cannot reach the destination directly travels through
up to four repeaters, carried by a routing header that leads the
application payload when the frame-control routed flag is set::

    APL' = [flags | hop] [repeater_count] [repeater_1..n] [real APL]

``flags`` bit 7 distinguishes the outgoing leg from the returned ACK leg;
the low nibble is the current hop index.  Repeaters relay frames whose
current hop names them; the destination processes the inner payload once
the hop index reaches the repeater count.

This gives the threat model a longer arm: an attacker parked beyond the
controller's radio horizon can still deliver the Table III payloads by
bouncing them off any listening repeater (see
``examples/mesh_attack.py``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

from ..errors import FrameError
from ..radio.clock import SimClock
from ..radio.medium import RadioMedium, Reception
from ..zwave.constants import Region
from ..zwave.frame import ZWaveFrame

#: Maximum repeaters per route (the G.9959 limit).
MAX_REPEATERS = 4

_FLAG_OUTGOING = 0x80
_HOP_MASK = 0x0F


@dataclass(frozen=True)
class RoutingHeader:
    """The routing prefix carried by a routed frame."""

    repeaters: Tuple[int, ...]
    hop_index: int = 0
    outgoing: bool = True

    def __post_init__(self) -> None:
        if not 1 <= len(self.repeaters) <= MAX_REPEATERS:
            raise FrameError(
                f"route must name 1..{MAX_REPEATERS} repeaters, got {len(self.repeaters)}"
            )
        if not 0 <= self.hop_index <= len(self.repeaters):
            raise FrameError("hop index outside the route")
        if any(not 1 <= r <= 232 for r in self.repeaters):
            raise FrameError("repeater node id out of range")

    @property
    def complete(self) -> bool:
        """Whether the frame has traversed every repeater."""
        return self.hop_index >= len(self.repeaters)

    @property
    def current_repeater(self) -> Optional[int]:
        if self.complete:
            return None
        return self.repeaters[self.hop_index]

    def advanced(self) -> "RoutingHeader":
        return RoutingHeader(self.repeaters, self.hop_index + 1, self.outgoing)

    def encode(self) -> bytes:
        flags = (_FLAG_OUTGOING if self.outgoing else 0x00) | (self.hop_index & _HOP_MASK)
        return bytes([flags, len(self.repeaters)]) + bytes(self.repeaters)

    @classmethod
    def decode(cls, data: bytes) -> Tuple["RoutingHeader", bytes]:
        """Parse a routing header; returns (header, inner payload)."""
        if len(data) < 2:
            raise FrameError("routed frame too short for a routing header")
        flags, count = data[0], data[1]
        if not 1 <= count <= MAX_REPEATERS:
            raise FrameError(f"invalid repeater count {count}")
        if len(data) < 2 + count:
            raise FrameError("routing header truncated")
        repeaters = tuple(data[2 : 2 + count])
        return (
            cls(
                repeaters=repeaters,
                hop_index=flags & _HOP_MASK,
                outgoing=bool(flags & _FLAG_OUTGOING),
            ),
            data[2 + count :],
        )


def make_routed_frame(
    home_id: int,
    src: int,
    dst: int,
    route: Tuple[int, ...],
    payload: bytes,
    sequence: int = 0,
) -> ZWaveFrame:
    """Build the first-hop frame of a routed singlecast."""
    header = RoutingHeader(repeaters=tuple(route))
    return ZWaveFrame(
        home_id=home_id,
        src=src,
        dst=dst,
        payload=header.encode() + payload,
        routed=True,
        sequence=sequence,
        ack_request=False,  # routed frames use routed ACKs, modelled off
    )


class MeshRepeater:
    """An always-listening node that relays routed frames.

    Real repeaters are just mains-powered slaves; this class models only
    the relay function, which is all the mesh substrate needs.
    """

    def __init__(
        self,
        name: str,
        home_id: int,
        node_id: int,
        clock: SimClock,
        medium: RadioMedium,
        position: Tuple[float, float],
    ):
        self.name = name
        self.home_id = home_id
        self.node_id = node_id
        self._clock = clock
        self._medium = medium
        self.frames_relayed = 0
        medium.attach(name, position, region=Region.US, callback=self._on_receive)

    def _on_receive(self, reception: Reception) -> None:
        try:
            frame = ZWaveFrame.decode(reception.raw, verify=True)
        except FrameError:
            return
        if frame.home_id != self.home_id or not frame.routed:
            return
        try:
            header, inner = RoutingHeader.decode(frame.payload)
        except FrameError:
            return
        if header.current_repeater != self.node_id:
            return
        relayed = ZWaveFrame(
            home_id=frame.home_id,
            src=frame.src,
            dst=frame.dst,
            payload=header.advanced().encode() + inner,
            routed=True,
            sequence=frame.sequence,
            ack_request=False,
        )
        self.frames_relayed += 1
        self._medium.transmit(self.name, relayed.encode(), reception.rate_kbaud)
