"""The packet tester: replay logged payloads and verify findings.

The fifth ZCover module ("a packet tester for validating selected packets
saved in the log file") and the paper's manual crash-verification step
("Any delays, crashes, or unresponsiveness ... are manually verified due to
the closed-source nature of Z-Wave devices").

Each candidate payload is replayed against a **fresh, quiet** system under
test; the tester then measures the precise impact — which memory-tampering
category fired, which host program died, or how long the controller stayed
unresponsive.  The measured (CMDCL, effect, duration) triple is the
*verified signature* used to deduplicate findings into the unique
vulnerabilities of Table III.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import CampaignError
from ..simulator.testbed import build_sut
from ..simulator.vulnerabilities import EffectType, Vulnerability, ZERO_DAYS
from ..zwave.frame import ZWaveFrame
from .fingerprint import SCANNER_NODE_ID
from .monitor import LivenessMonitor, ObservedKind, SutObserver

#: ObservedKind → the ground-truth effect it corresponds to.
_KIND_TO_EFFECT = {
    ObservedKind.HANG: EffectType.CONTROLLER_HANG,
    ObservedKind.MEMORY_MODIFY: EffectType.MEMORY_MODIFY,
    ObservedKind.MEMORY_INSERT: EffectType.MEMORY_INSERT,
    ObservedKind.MEMORY_REMOVE: EffectType.MEMORY_REMOVE,
    ObservedKind.MEMORY_OVERWRITE: EffectType.MEMORY_OVERWRITE,
    ObservedKind.MEMORY_WAKEUP_CLEAR: EffectType.MEMORY_WAKEUP_CLEAR,
    ObservedKind.HOST_CRASH: EffectType.HOST_CRASH,
    ObservedKind.HOST_DOS: EffectType.HOST_DOS,
}

#: Verified signature: (CMDCL, observed kind, duration rounded to seconds
#: or None for persistent impact).
Signature = Tuple[int, str, Optional[int]]


@dataclass(frozen=True)
class VerifiedFinding:
    """One replay-confirmed vulnerability."""

    payload_hex: str
    cmdcl: int
    cmd: Optional[int]
    kind: ObservedKind
    duration_s: Optional[float]

    @property
    def payload(self) -> bytes:
        return bytes.fromhex(self.payload_hex)

    @property
    def signature(self) -> Signature:
        rounded = None if self.duration_s is None else int(round(self.duration_s))
        return (self.cmdcl, self.kind.value, rounded)

    @property
    def duration_label(self) -> str:
        if self.duration_s is None:
            return "Infinite"
        if self.duration_s >= 120:
            return f"{int(round(self.duration_s / 60))} min"
        return f"{int(round(self.duration_s))} sec"

    def match_table3(self) -> Optional[Vulnerability]:
        """Map this finding onto the canonical Table III entry.

        The surrogate for the paper's manual analysis: a zero-day matches
        when the command class and effect category agree and, for hangs,
        the measured outage is within a couple of seconds of the canonical
        duration.
        """
        effect = _KIND_TO_EFFECT[self.kind]
        candidates = [
            bug
            for bug in ZERO_DAYS
            if bug.cmdcl == self.cmdcl and bug.effect is effect
        ]
        if not candidates:
            return None
        if self.duration_s is None:
            return candidates[0]
        best = min(
            candidates,
            key=lambda bug: abs((bug.duration_s or 0.0) - self.duration_s),
        )
        if best.duration_s is not None and abs(best.duration_s - self.duration_s) <= 3.0:
            return best
        return None


class PacketTester:
    """Replays payloads from the bug log on pristine systems under test."""

    def __init__(
        self,
        device: str = "D1",
        seed: int = 0,
        max_hang_wait: float = 600.0,
        settle: float = 0.25,
    ):
        # The hang-wait pings until this much simulated time has passed:
        # NaN would end it at once and infinity never.
        if not 0 < max_hang_wait < math.inf:
            raise CampaignError(
                f"max_hang_wait must be a positive finite number, got {max_hang_wait!r}"
            )
        self._device = device
        self._seed = seed
        self._max_hang_wait = max_hang_wait
        self._settle = settle
        self.replays = 0

    def verify_payload(self, payload: bytes) -> Optional[VerifiedFinding]:
        """Replay *payload* on a fresh SUT and measure what it does."""
        self.replays += 1
        sut = build_sut(self._device, seed=self._seed, traffic=False)
        observer = SutObserver(sut)
        monitor = LivenessMonitor(sut.dongle, sut.clock, sut.controller)
        frame = ZWaveFrame(
            home_id=sut.profile.home_id,
            src=SCANNER_NODE_ID,
            dst=sut.controller.node_id,
            payload=payload,
        )
        attack_time = sut.clock.now
        sut.dongle.inject(frame)
        sut.clock.advance(self._settle)

        cmdcl = payload[0] if payload else -1
        cmd = payload[1] if len(payload) >= 2 else None

        memory_kind, _ = observer.check_memory()
        if memory_kind is not None:
            return VerifiedFinding(payload.hex(), cmdcl, cmd, memory_kind, None)
        host_kind = observer.check_host()
        if host_kind is not None:
            return VerifiedFinding(payload.hex(), cmdcl, cmd, host_kind, None)
        if not monitor.ping():
            recovery = monitor.ping_until_responsive(self._max_hang_wait)
            duration = (
                None
                if recovery is None
                else (sut.clock.now - attack_time - monitor.timeout)
            )
            return VerifiedFinding(
                payload.hex(), cmdcl, cmd, ObservedKind.HANG, duration
            )
        return None

    def verify_log(self, groups: List[Tuple[bytes, float, int]]) -> Dict[Signature, "VerifiedUnique"]:
        """Verify one payload per coarse group; dedup by signature.

        *groups* are (payload, first_seen_time, first_seen_packet) tuples.
        Returns unique findings keyed by verified signature, keeping the
        earliest discovery metadata.
        """
        unique: Dict[Signature, VerifiedUnique] = {}
        for payload, first_time, first_packet in groups:
            finding = self.verify_payload(payload)
            if finding is None:
                continue
            signature = finding.signature
            existing = unique.get(signature)
            if existing is None or first_time < existing.first_detection_time:
                unique[signature] = VerifiedUnique(
                    finding=finding,
                    first_detection_time=first_time,
                    first_detection_packet=first_packet,
                )
        return unique


@dataclass(frozen=True)
class VerifiedUnique:
    """A deduplicated finding with its earliest in-campaign discovery."""

    finding: VerifiedFinding
    first_detection_time: float
    first_detection_packet: int

    @property
    def bug(self) -> Optional[Vulnerability]:
        return self.finding.match_table3()

    @property
    def bug_id(self) -> Optional[int]:
        bug = self.bug
        return bug.bug_id if bug else None
