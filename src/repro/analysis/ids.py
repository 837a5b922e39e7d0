"""ZMAD-style lightweight intrusion detection (the paper's remediation).

Section V-B: "For legacy devices, a lightweight intrusion detection system
(IDS) (e.g., [15]) can detect attacks and trigger alarms or alerts."
Reference [15] is ZMAD (Nkuba et al., IEEE Access 2023), a model-based
anomaly detector for the structured Z-Wave protocol.  This module
implements the same idea against our simulated network:

* a **training phase** builds a whitelist model of normal traffic — the
  (src, CMDCL, CMD) triples seen, the per-class payload-length envelope,
  and the per-node frame rate;
* a **detection phase** scores each frame against the model; violations
  raise typed alerts (unknown sender, never-seen command class, payload
  length outside the learned envelope, rate spikes).

Every ZCover attack payload in Table III violates at least one of these
rules, so the IDS catches them, while the normal poll/report traffic of
the testbed stays silent — the trade-off the paper proposes for devices
that cannot receive firmware fixes.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from ..zwave.frame import ZWaveFrame


class AlertKind(Enum):
    """Why a frame was flagged."""

    UNKNOWN_SENDER = "unknown_sender"
    FOREIGN_NETWORK = "foreign_network"
    UNKNOWN_CMDCL = "unknown_cmdcl"
    UNKNOWN_CMD = "unknown_cmd"
    LENGTH_ANOMALY = "length_anomaly"
    RATE_ANOMALY = "rate_anomaly"
    SEQUENCE_ANOMALY = "sequence_anomaly"


@dataclass(frozen=True)
class Alert:
    """One IDS detection."""

    timestamp: float
    kind: AlertKind
    src: int
    cmdcl: Optional[int]
    detail: str


@dataclass
class TrafficModel:
    """The learned picture of normal network behaviour."""

    home_id: int
    known_senders: Set[int] = field(default_factory=set)
    known_cmdcls: Set[int] = field(default_factory=set)
    known_commands: Set[Tuple[int, int]] = field(default_factory=set)
    length_bounds: Dict[int, Tuple[int, int]] = field(default_factory=dict)
    max_rate_per_minute: float = 0.0
    #: The ZMAD-style Markov layer: observed per-sender command-class
    #: bigrams (src, previous cmdcl, cmdcl).
    transitions: Set[Tuple[int, int, int]] = field(default_factory=set)
    _last_cmdcl: Dict[int, int] = field(default_factory=dict)

    def observe(self, frame: ZWaveFrame) -> None:
        """Fold one benign frame into the model."""
        self.known_senders.add(frame.src)
        if frame.cmdcl is None:
            return
        self.known_cmdcls.add(frame.cmdcl)
        if frame.cmd is not None:
            self.known_commands.add((frame.cmdcl, frame.cmd))
        lo, hi = self.length_bounds.get(frame.cmdcl, (255, 0))
        size = len(frame.payload)
        self.length_bounds[frame.cmdcl] = (min(lo, size), max(hi, size))
        previous = self._last_cmdcl.get(frame.src)
        if previous is not None:
            self.transitions.add((frame.src, previous, frame.cmdcl))
        self._last_cmdcl[frame.src] = frame.cmdcl

    def transition_known(self, src: int, previous: Optional[int], cmdcl: int) -> bool:
        """Whether the (src, previous→current) class bigram was trained."""
        if previous is None:
            return True  # first observation from this sender
        return (src, previous, cmdcl) in self.transitions


class ZWaveIDS:
    """Model-based anomaly detector for one Z-Wave network."""

    #: Sliding window used for rate estimation, in seconds.
    RATE_WINDOW = 60.0
    #: Headroom multiplier over the trained peak rate.
    RATE_SLACK = 3.0

    def __init__(self, home_id: int):
        self._model = TrafficModel(home_id=home_id)
        self._trained = False
        self._arrivals: Dict[int, List[float]] = defaultdict(list)
        self._train_arrivals: List[float] = []
        self._live_last_cmdcl: Dict[int, int] = {}

    # -- training ---------------------------------------------------------------

    def train(self, frames: List[Tuple[float, ZWaveFrame]]) -> TrafficModel:
        """Learn the normal model from (timestamp, frame) observations."""
        for timestamp, frame in frames:
            if frame.home_id != self._model.home_id or frame.is_ack:
                continue
            self._model.observe(frame)
            self._train_arrivals.append(timestamp)
        self._model.max_rate_per_minute = self._peak_rate(self._train_arrivals)
        self._trained = True
        return self._model

    def _peak_rate(self, arrivals: List[float]) -> float:
        if not arrivals:
            return 1.0
        arrivals = sorted(arrivals)
        peak = 1
        lo = 0
        for hi, t in enumerate(arrivals):
            while t - arrivals[lo] > self.RATE_WINDOW:
                lo += 1
            peak = max(peak, hi - lo + 1)
        return float(peak)

    # -- detection -----------------------------------------------------------------

    def inspect(self, timestamp: float, frame: ZWaveFrame) -> List[Alert]:
        """Score one frame; returns any alerts raised."""
        if not self._trained:
            raise RuntimeError("train the IDS before inspecting traffic")
        raised: List[Alert] = []
        if frame.home_id != self._model.home_id:
            raised.append(
                Alert(timestamp, AlertKind.FOREIGN_NETWORK, frame.src, frame.cmdcl,
                      f"home id 0x{frame.home_id:08X} is not this network")
            )
        if frame.is_ack:
            return raised
        if frame.src not in self._model.known_senders:
            raised.append(
                Alert(timestamp, AlertKind.UNKNOWN_SENDER, frame.src, frame.cmdcl,
                      f"node {frame.src} never appeared during training")
            )
        cmdcl = frame.cmdcl
        if cmdcl is not None and cmdcl != 0x00:
            # The Markov layer: an unseen per-sender class transition from
            # an otherwise-known sender is suspicious even when every
            # individual field looks trained.
            previous = self._live_last_cmdcl.get(frame.src)
            if (
                frame.src in self._model.known_senders
                and cmdcl in self._model.known_cmdcls
                and not self._model.transition_known(frame.src, previous, cmdcl)
            ):
                raised.append(
                    Alert(timestamp, AlertKind.SEQUENCE_ANOMALY, frame.src, cmdcl,
                          f"node {frame.src} never followed 0x{previous:02X} "
                          f"with 0x{cmdcl:02X} in benign traffic")
                )
            self._live_last_cmdcl[frame.src] = cmdcl
            if cmdcl not in self._model.known_cmdcls:
                raised.append(
                    Alert(timestamp, AlertKind.UNKNOWN_CMDCL, frame.src, cmdcl,
                          f"command class 0x{cmdcl:02X} never seen in benign traffic")
                )
            else:
                cmd = frame.cmd
                if cmd is not None and (cmdcl, cmd) not in self._model.known_commands:
                    raised.append(
                        Alert(timestamp, AlertKind.UNKNOWN_CMD, frame.src, cmdcl,
                              f"command 0x{cmd:02X} of class 0x{cmdcl:02X} is new")
                    )
                bounds = self._model.length_bounds.get(cmdcl)
                if bounds is not None:
                    lo, hi = bounds
                    if not lo <= len(frame.payload) <= hi:
                        raised.append(
                            Alert(timestamp, AlertKind.LENGTH_ANOMALY, frame.src, cmdcl,
                                  f"payload length {len(frame.payload)} outside [{lo}, {hi}]")
                        )
        raised.extend(self._rate_check(timestamp, frame))
        return raised

    def _rate_check(self, timestamp: float, frame: ZWaveFrame) -> List[Alert]:
        arrivals = self._arrivals[frame.src]
        arrivals.append(timestamp)
        while arrivals and timestamp - arrivals[0] > self.RATE_WINDOW:
            arrivals.pop(0)
        threshold = max(self._model.max_rate_per_minute * self.RATE_SLACK, 5.0)
        if len(arrivals) > threshold:
            return [
                Alert(timestamp, AlertKind.RATE_ANOMALY, frame.src, frame.cmdcl,
                      f"{len(arrivals)} frames/min from node {frame.src} "
                      f"(threshold {threshold:.0f})")
            ]
        return []
