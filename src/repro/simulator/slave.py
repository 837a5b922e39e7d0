"""Virtual slave devices: the smart lock (D8) and smart switch (D9).

Table II adds these "to create a realistic smart home": they give the
passive scanner live traffic to sniff, the attack-scenario example a victim,
and the controller something to poll.  The lock speaks S2 (like the Schlage
BE469ZP), the switch is a legacy no-security device (like the GE ZW4201).
"""

from __future__ import annotations

import random
from typing import Optional, Tuple

from ..errors import FrameError
from ..radio.clock import SimClock
from ..radio.medium import RadioMedium, Reception
from ..security.s2 import S2Context
from ..zwave import constants as const
from ..zwave.application import ApplicationPayload
from ..zwave.constants import Region
from ..zwave.frame import ZWaveFrame
from ..zwave.nif import (
    BasicDeviceClass,
    GenericDeviceClass,
    NodeInfo,
    encode_nif_report,
    is_nif_request,
)


class VirtualSlave:
    """Base class for simulated slave devices."""

    GENERIC_CLASS = GenericDeviceClass.BINARY_SWITCH
    LISTED_CMDCLS: Tuple[int, ...] = (0x20,)

    def __init__(
        self,
        name: str,
        home_id: int,
        node_id: int,
        clock: SimClock,
        medium: RadioMedium,
        position: Tuple[float, float] = (5.0, 0.0),
        controller_id: int = const.CONTROLLER_NODE_ID,
        rng: Optional[random.Random] = None,
    ):
        self.name = name
        self.home_id = home_id
        self.node_id = node_id
        self.controller_id = controller_id
        self._clock = clock
        self._medium = medium
        self._rng = rng or random.Random(0)
        self._sequence = 0
        self._report_interval: Optional[float] = None
        self.frames_received = 0
        # Addressed: the medium drops frames for other networks and other
        # nodes before they reach :meth:`_on_receive` — most traffic on
        # the shared channel is addressed to the controller.
        medium.attach(
            name,
            position,
            region=Region.US,
            callback=self._on_receive,
            address=(home_id, node_id),
        )

    # -- reporting --------------------------------------------------------------

    def start_reporting(self, interval: float) -> None:
        """Send unsolicited status reports every *interval* seconds."""
        self._report_interval = interval
        self._clock.schedule(interval, self._do_report)

    def _do_report(self) -> None:
        self.send_report()
        if self._report_interval is not None:
            self._clock.schedule(self._report_interval, self._do_report)

    def send_report(self) -> None:
        """Transmit the device's current status to the controller."""
        self._send(self.controller_id, self.report_payload())

    def report_payload(self) -> ApplicationPayload:
        raise NotImplementedError

    def node_info(self) -> NodeInfo:
        return NodeInfo(
            basic=BasicDeviceClass.SLAVE,
            generic=self.GENERIC_CLASS,
            listed_cmdcls=self.LISTED_CMDCLS,
        )

    # -- frame plumbing ------------------------------------------------------------

    def _next_seq(self) -> int:
        self._sequence = (self._sequence + 1) % 16
        return self._sequence

    def _send(self, dst: int, payload: ApplicationPayload) -> None:
        frame = ZWaveFrame(
            home_id=self.home_id,
            src=self.node_id,
            dst=dst,
            payload=payload.encode(),
            sequence=self._next_seq(),
        )
        self._medium.transmit(self.name, frame.encode(), rate_kbaud=100.0)

    def _on_receive(self, reception: Reception) -> None:
        try:
            frame = ZWaveFrame.decode(reception.raw, verify=True)
        except FrameError:
            return
        if frame.home_id != self.home_id:
            return
        if frame.dst not in (self.node_id, const.BROADCAST_NODE_ID):
            return
        if frame.is_ack:
            return
        self.frames_received += 1
        if frame.ack_request and not frame.is_broadcast:
            self._medium.transmit(self.name, frame.ack().encode(), rate_kbaud=100.0)
        if not frame.payload or frame.payload == bytes([const.NOP_CMDCL]):
            return
        try:
            payload = ApplicationPayload.decode(frame.payload)
        except FrameError:
            return
        if is_nif_request(payload):
            self._send(frame.src, encode_nif_report(self.node_info()))
            return
        self.handle_command(frame, payload)

    def handle_command(self, frame: ZWaveFrame, payload: ApplicationPayload) -> None:
        raise NotImplementedError


class VirtualBinarySwitch(VirtualSlave):
    """A legacy no-security smart switch (D9, GE ZW4201-style)."""

    GENERIC_CLASS = GenericDeviceClass.BINARY_SWITCH
    LISTED_CMDCLS = (0x20, 0x25, 0x27, 0x72, 0x86)

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.on = False

    def report_payload(self) -> ApplicationPayload:
        value = 0xFF if self.on else 0x00
        return ApplicationPayload(0x25, 0x03, bytes([value]))

    def handle_command(self, frame: ZWaveFrame, payload: ApplicationPayload) -> None:
        if payload.cmdcl in (0x20, 0x25):
            if payload.cmd == 0x01 and payload.params:  # SET
                self.on = payload.params[0] != 0x00
            elif payload.cmd == 0x02:  # GET
                self._send(frame.src, self.report_payload())


class VirtualDoorLock(VirtualSlave):
    """An S2 smart door lock (D8, Schlage BE469ZP-style)."""

    GENERIC_CLASS = GenericDeviceClass.ENTRY_CONTROL
    LISTED_CMDCLS = (0x20, 0x62, 0x63, 0x72, 0x80, 0x86, 0x9F)

    #: DOOR_LOCK operation-report mode bytes.
    MODE_UNSECURED = 0x00
    MODE_SECURED = 0xFF

    def __init__(
        self,
        *args,
        network_key: bytes = b"\x00" * 16,
        secure_reports: bool = True,
        **kwargs,
    ):
        super().__init__(*args, **kwargs)
        self.locked = True
        self._s2 = S2Context(network_key, self.node_id, self._rng)
        self._secure_reports = secure_reports
        from .transport import S2Messaging

        self._s2m = S2Messaging(
            self._s2, self.home_id, self.node_id, self._send, self._handle_inner
        )

    @property
    def s2(self) -> S2Context:
        return self._s2

    @property
    def s2_messaging(self):
        return self._s2m

    def report_payload(self) -> ApplicationPayload:
        mode = self.MODE_SECURED if self.locked else self.MODE_UNSECURED
        return ApplicationPayload(0x62, 0x03, bytes([mode, 0x00]))

    def send_report(self) -> None:
        """Status reports travel S2-encapsulated, like a real BE469ZP."""
        if self._secure_reports:
            self._s2m.send_secure(self.controller_id, self.report_payload())
        else:
            super().send_report()

    #: NOTIFICATION (0x71) access-control event codes.
    EVENT_MANUAL_LOCK = 0x01
    EVENT_MANUAL_UNLOCK = 0x02
    EVENT_REMOTE_LOCK = 0x03
    EVENT_REMOTE_UNLOCK = 0x04

    def _set_locked(self, locked: bool, remote: bool) -> None:
        """Change the bolt state and emit the access-control notification."""
        if locked == self.locked:
            return
        self.locked = locked
        if remote:
            event = self.EVENT_REMOTE_LOCK if locked else self.EVENT_REMOTE_UNLOCK
        else:
            event = self.EVENT_MANUAL_LOCK if locked else self.EVENT_MANUAL_UNLOCK
        # NOTIFICATION_REPORT: v1 alarm type 0, level = event code.
        notification = ApplicationPayload(0x71, 0x05, bytes([0x00, event]))
        if self._secure_reports:
            self._s2m.send_secure(self.controller_id, notification)
        else:
            self._send(self.controller_id, notification)

    def operate_manually(self, locked: bool) -> None:
        """Someone turns the thumb-turn: state change + notification."""
        self._set_locked(locked, remote=False)

    def _handle_inner(self, src: int, inner: ApplicationPayload) -> None:
        """A decapsulated command operates the lock; replies go back S2."""
        if inner.cmdcl == 0x62:
            if inner.cmd == 0x01 and inner.params:
                self._set_locked(inner.params[0] == self.MODE_SECURED, remote=True)
                self._s2m.send_secure(src, self.report_payload())
            elif inner.cmd == 0x02:
                self._s2m.send_secure(src, self.report_payload())

    def handle_command(self, frame: ZWaveFrame, payload: ApplicationPayload) -> None:
        """Route S2 transport messages, then plaintext lock operations."""
        if self._s2m.handle(frame.src, payload):
            return
        if payload.cmdcl == 0x62:
            if payload.cmd == 0x01 and payload.params:  # OPERATION_SET
                self._set_locked(payload.params[0] == self.MODE_SECURED, remote=True)
                self._send(frame.src, self.report_payload())
            elif payload.cmd == 0x02:  # OPERATION_GET
                self._send(frame.src, self.report_payload())
        elif payload.cmdcl == 0x20:
            if payload.cmd == 0x01 and payload.params:
                self.locked = payload.params[0] != 0x00
            elif payload.cmd == 0x02:
                value = 0xFF if self.locked else 0x00
                self._send(frame.src, ApplicationPayload(0x20, 0x03, bytes([value])))
