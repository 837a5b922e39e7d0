"""The attacker-side transceiver: a simulated YardStick-One-class dongle.

The paper's experiment environment uses "the Yardstick dongle as the Z-Wave
transceiver due to its support from the open-source community", attached to
a laptop 10-70 m from the target.  :class:`Transceiver` models exactly the
capabilities ZCover needs from it: configure frequency and data rate, sniff
promiscuously into a capture buffer, and inject crafted frames.

Per Figure 4, "ZCover verifies that the Z-Wave transceiver dongle is
configured with a valid radio frequency and sampling rate (e.g., 868 or 908
MHz)" — misconfiguration raises :class:`TransceiverError` before any frame
moves.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, List, NamedTuple, Optional, Tuple

from ..errors import TransceiverError
from ..zwave.constants import DATA_RATES_KBAUD, Region
from ..zwave.frame import FrameView, ZWaveFrame, lenient_view
from .medium import RadioMedium, Reception

#: Capture buffer depth; the oldest captures roll off, like a real dongle.
CAPTURE_BUFFER_SIZE = 4096


class CapturedFrame(NamedTuple):
    """One sniffed frame with its radio metadata.

    ``frame`` is a zero-copy :class:`~repro.zwave.frame.FrameView` over
    ``raw`` (``None`` when the buffer is not dissectable): fields decode
    lazily on first touch, so captures that are only length-filtered or
    ack-scanned never pay for a full parse.  A named tuple, built with
    ``tuple.__new__`` when the capture ring is read.
    """

    raw: bytes
    frame: Optional[FrameView]
    rssi_dbm: float
    timestamp: float


class Transceiver:
    """A sniff/inject dongle attached to the simulated medium."""

    def __init__(
        self,
        medium: RadioMedium,
        name: str = "dongle",
        position: Tuple[float, float] = (0.0, 0.0),
    ):
        self._medium = medium
        self._name = name
        self._position = position
        self._region: Optional[Region] = None
        self._rate_kbaud: Optional[float] = None
        # The ring holds the medium's ``Reception`` objects as delivered;
        # ``CapturedFrame`` and its view are built only when read, since most
        # captures are cleared unread by the next ping.
        self._captures: Deque[Reception] = deque(maxlen=CAPTURE_BUFFER_SIZE)
        self._attached = False
        self._injected = 0

    # -- configuration ------------------------------------------------------------

    def configure(self, region: Region, rate_kbaud: float) -> None:
        """Tune the dongle; validates frequency and sampling rate."""
        if not isinstance(region, Region):
            raise TransceiverError(f"{region!r} is not a valid Z-Wave region")
        if rate_kbaud not in DATA_RATES_KBAUD:
            raise TransceiverError(
                f"data rate {rate_kbaud} kbaud is not one of {DATA_RATES_KBAUD}"
            )
        self._region = region
        self._rate_kbaud = rate_kbaud
        if not self._attached:
            self._medium.attach(
                self._name,
                self._position,
                region,
                self._captures.append,
            )
            self._attached = True

    @property
    def configured(self) -> bool:
        return self._region is not None and self._rate_kbaud is not None

    @property
    def frames_injected(self) -> int:
        return self._injected

    def _require_configured(self) -> None:
        if not self.configured:
            raise TransceiverError(
                "transceiver must be configured with a valid RF region and "
                "sampling rate before use"
            )

    # -- receive path ----------------------------------------------------------------

    def captures(self) -> List[CapturedFrame]:
        """Snapshot of the capture buffer (oldest first)."""
        new_capture = tuple.__new__  # skips the named tuple's Python-level __new__
        return [
            new_capture(CapturedFrame, (raw, lenient_view(raw), rssi_dbm, timestamp))
            for raw, rssi_dbm, timestamp, _ in self._captures
        ]

    def capture_bytes(self) -> List[bytes]:
        """The raw bytes of the capture buffer (oldest first), undissected."""
        return [r.raw for r in self._captures]

    def drain_captures(self) -> List[CapturedFrame]:
        """Return and clear the capture buffer."""
        captured = self.captures()
        self._captures.clear()
        return captured

    def clear_captures(self) -> None:
        self._captures.clear()

    # -- transmit path ----------------------------------------------------------------

    def inject(self, frame: ZWaveFrame) -> float:
        """Encode and transmit *frame*; returns the airtime in seconds."""
        self._require_configured()
        self._injected += 1
        return self._medium.transmit(self._name, frame.encode(), self._rate_kbaud)

    def inject_raw(self, raw: bytes) -> float:
        """Transmit pre-encoded (possibly malformed) frame bytes."""
        self._require_configured()
        self._injected += 1
        return self._medium.transmit(self._name, raw, self._rate_kbaud)

    def unheard_except(self, frame: ZWaveFrame, listener: str) -> Optional[float]:
        """How long *frame*, injected now, takes to reach *listener*, when
        it reaches no other receiver; ``None`` otherwise.

        See :meth:`RadioMedium.unheard_except`; ``None`` until configured.
        """
        if not self.configured:
            return None
        return self._medium.unheard_except(
            self._name, frame.encode(), self._rate_kbaud, listener
        )

    def inject_unheard(self, frame: ZWaveFrame, listener: str, count: int) -> int:
        """Book *count* injections :meth:`unheard_except` cleared, without the queue.

        They count as injections like :meth:`inject`'s; returns how many
        of *listener*'s deliveries were kept (see
        :meth:`RadioMedium.transmit_unheard`).
        """
        self._require_configured()
        self._injected += count
        return self._medium.transmit_unheard(self._name, listener, count)

    @property
    def position(self) -> Tuple[float, float]:
        return self._position
