"""Node Information Frame (NIF) encoding and parsing.

Active scanning (Section III-B2) drives device reconnaissance through NIF
exchanges: "when we request the controller via a NIF packet, the controller
responds with its listed supported CMDCLs".  On the wire a NIF travels as a
Z-Wave protocol frame (command class 0x01, command 0x01) whose body carries
the device classification followed by the *listed* command classes::

    0x01 | 0x01 | capability | basic | generic | specific | CMDCL...

The request form carries no body.  Note the asymmetry the paper exploits:
the NIF lists only what the vendor chose to advertise, not everything the
firmware implements.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum
from typing import Optional, Tuple

from ..errors import FrameError
from .application import ApplicationPayload

#: Protocol command class and command carrying node information.
NIF_CMDCL = 0x01
NIF_CMD = 0x01

#: Capability byte flags.
CAP_LISTENING = 0x80
CAP_ROUTING = 0x40
CAP_BEAM_250MS = 0x20
CAP_SECURITY = 0x10


class BasicDeviceClass(IntEnum):
    """Basic device classes from the device-class specification."""

    CONTROLLER = 0x01
    STATIC_CONTROLLER = 0x02
    SLAVE = 0x03
    ROUTING_SLAVE = 0x04


class GenericDeviceClass(IntEnum):
    """Generic device classes (subset relevant to the testbed)."""

    GENERIC_CONTROLLER = 0x01
    STATIC_CONTROLLER = 0x02
    ENTRY_CONTROL = 0x40
    BINARY_SWITCH = 0x10
    MULTILEVEL_SWITCH = 0x11
    SENSOR_BINARY = 0x20
    SENSOR_MULTILEVEL = 0x21


@dataclass(frozen=True)
class NodeInfo:
    """The device self-description a NIF carries."""

    basic: int
    generic: int
    specific: int = 0x00
    listening: bool = True
    routing: bool = True
    security: bool = False
    listed_cmdcls: Tuple[int, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        for label, value in (
            ("basic", self.basic),
            ("generic", self.generic),
            ("specific", self.specific),
        ):
            if not 0 <= value <= 0xFF:
                raise FrameError(f"{label} device class {value} out of byte range")
        if any(not 0 <= c <= 0xFF for c in self.listed_cmdcls):
            raise FrameError("listed command class out of byte range")

    @property
    def capability(self) -> int:
        """The packed capability byte."""
        cap = 0
        if self.listening:
            cap |= CAP_LISTENING
        if self.routing:
            cap |= CAP_ROUTING
        if self.security:
            cap |= CAP_SECURITY
        return cap


def encode_nif_request() -> ApplicationPayload:
    """Build the NIF request payload (protocol frame, empty body)."""
    return ApplicationPayload(NIF_CMDCL, NIF_CMD, b"")


def encode_nif_report(info: NodeInfo) -> ApplicationPayload:
    """Build the NIF report payload advertising *info*."""
    body = bytearray([info.capability, info.basic, info.generic, info.specific])
    body += bytes(info.listed_cmdcls)
    return ApplicationPayload(NIF_CMDCL, NIF_CMD, bytes(body))


def is_nif_request(payload: ApplicationPayload) -> bool:
    """Whether *payload* is a NIF request (no body)."""
    return (
        payload.cmdcl == NIF_CMDCL and payload.cmd == NIF_CMD and not payload.params
    )


def is_nif_report(payload: ApplicationPayload) -> bool:
    """Whether *payload* looks like a NIF report (has a body)."""
    return (
        payload.cmdcl == NIF_CMDCL
        and payload.cmd == NIF_CMD
        and len(payload.params) >= 4
    )


def parse_nif_report(payload: ApplicationPayload) -> Optional[NodeInfo]:
    """Parse a NIF report back into :class:`NodeInfo` (``None`` if not one)."""
    if not is_nif_report(payload):
        return None
    capability, basic, generic, specific = payload.params[:4]
    return NodeInfo(
        basic=basic,
        generic=generic,
        specific=specific,
        listening=bool(capability & CAP_LISTENING),
        routing=bool(capability & CAP_ROUTING),
        security=bool(capability & CAP_SECURITY),
        listed_cmdcls=tuple(payload.params[4:]),
    )
