"""The ZCover fuzzing engine — Algorithm 1 of the paper.

The engine walks a prioritised queue of command classes, drives the
position-sensitive mutator for each, injects every test case over the
attacker's dongle, and runs the three oracles (memory, host, liveness)
after each packet.  A command class keeps its slot for as long as it keeps
producing findings: the C_T window restarts on every new bug, and only an
entirely quiet window moves the queue forward — the "if no crash occurs for
the current CMDCL after C_T" rule.

Timing reproduces the paper's throughput: one test packet every 0.75
simulated seconds ≈ 800 packets in the first 600 seconds (Figure 12).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, List, Optional, Sequence, Set, Tuple

from ..errors import FrameTooLargeError
from ..faults.injector import AbortSignal
from ..obs import metrics as obs
from ..obs.tracing import span
from ..radio.clock import SimClock
from ..simulator.testbed import SystemUnderTest
from ..zwave import constants as const
from ..wire import layout
from ..zwave.checksum import cs8
from .buglog import BugLog, BugRecord
from .fingerprint import SCANNER_NODE_ID
from .monitor import LivenessMonitor, Observation, ObservedKind, SutObserver
from .mutation import TestCase


@dataclass(frozen=True)
class FuzzerConfig:
    """Tunable knobs of the engine (Algorithm 1 inputs)."""

    cmdcl_time: float = 60.0  # C_T: quiet time before moving on
    packet_period: float = 0.75  # full send/observe budget per test
    settle_time: float = 0.1  # wait after injection before oracles run
    ping_timeout: float = 0.5
    recovery_time: float = 2.0
    requeue: bool = True  # restart the queue for long trials


@layout(row=True)
@dataclass(frozen=True)
class DetectionMark:
    """One red cross of Figure 12."""

    timestamp: float
    packet_no: int
    cmdcl: int
    observed: str


@layout(row=True)
@dataclass(frozen=True)
class TimelinePoint:
    """One sample of the packets-over-time curve of Figure 12."""

    timestamp: float
    packets: int
    detections: int


@layout(via={"bug_log": (List[BugRecord], BugLog.records, BugLog)})
@dataclass
class FuzzResult:
    """Everything one engine run produced."""

    packets_sent: int = 0
    duration: float = 0.0
    bug_log: BugLog = field(default_factory=BugLog)
    detections: List[DetectionMark] = field(default_factory=list)
    timeline: List[TimelinePoint] = field(default_factory=list)
    cmdcls_used: Set[int] = field(default_factory=set)
    cmds_used: Set[int] = field(default_factory=set)
    windows_completed: int = 0

    @property
    def cmdcl_coverage(self) -> int:
        """Distinct command classes exercised (Table V)."""
        return len(self.cmdcls_used)

    @property
    def cmd_coverage(self) -> int:
        """Distinct command identifiers exercised (Table V)."""
        return len(self.cmds_used)


#: What the oracles see after nearly every packet; frozen, so one instance
#: serves them all.
_RESPONSIVE = Observation(responsive=True)

#: A unit of work: a labelled test-case stream with an optional C_T window.
Stream = Tuple[int, Iterator[TestCase], Optional[float]]


class FuzzingEngine:
    """Drives test cases into a SUT and watches the oracles."""

    TIMELINE_STRIDE = 10  # sample the packet curve every N packets

    def __init__(
        self,
        sut: SystemUnderTest,
        config: Optional[FuzzerConfig] = None,
    ):
        self._sut = sut
        self._clock: SimClock = sut.clock
        self.config = config or FuzzerConfig()
        self._monitor = LivenessMonitor(
            sut.dongle, sut.clock, sut.controller, timeout=self.config.ping_timeout
        )
        self._observer = SutObserver(sut, recovery_time=self.config.recovery_time)
        self._sequence = 0
        # Injected frames differ only in sequence, payload and the derived
        # LEN/CS bytes; the header prefix up to P1 is baked once so the hot
        # path splices raw buffers instead of round-tripping a frame object.
        self._inject_prefix = sut.profile.home_id.to_bytes(4, "big") + bytes(
            (
                SCANNER_NODE_ID,
                const.P1_ACK_REQUEST_FLAG | const.HeaderType.SINGLECAST,
            )
        )
        self._inject_dst = sut.controller.node_id

    @property
    def monitor(self) -> LivenessMonitor:
        return self._monitor

    # -- the main loop (Algorithm 1) -------------------------------------------

    def run(self, streams: Iterable[Stream], duration: float) -> FuzzResult:
        """Fuzz until *duration* simulated seconds elapse or streams end.

        A planned :class:`AbortSignal` (repro.faults campaign abort) ends
        the run early but cleanly: bookkeeping is finished and the partial
        result returned, for the campaign layer to tag as degraded.
        """
        result = FuzzResult()
        start = self._clock.now
        try:
            self._run_streams(streams, start + duration, result, start)
        except AbortSignal:
            obs.inc("fuzzer.aborted")
        result.duration = self._clock.now - start
        result.timeline.append(
            TimelinePoint(result.duration, result.packets_sent, len(result.detections))
        )
        return result

    def _run_streams(
        self,
        streams: Iterable[Stream],
        deadline: float,
        result: FuzzResult,
        start: float,
    ) -> None:
        seen_groups: set = set()
        for cmdcl_label, generator, window in streams:
            if self._clock.now >= deadline:
                break
            label = f"0x{cmdcl_label:02x}" if cmdcl_label >= 0 else "random"
            window_anchor = self._clock.now
            with span("fuzzer.window", cmdcl=label):
                for case in generator:
                    if self._clock.now >= deadline:
                        break
                    test_start = self._clock.now
                    payload = self._inject(case, result)
                    observation = self._observe()
                    if observation.finding:
                        self._record(case, payload, observation, result, start)
                        self._recover(observation)
                        # Only a *novel* finding keeps the class on the fuzzing
                        # slot; re-triggering known crashes must not starve the
                        # rest of the queue.
                        group = (
                            case.payload.cmdcl,
                            case.payload.cmd,
                            observation.kind.value,
                        )
                        if group not in seen_groups:
                            seen_groups.add(group)
                            window_anchor = self._clock.now
                    self._pad(test_start)
                    self._sample_timeline(result, start)
                    if (
                        window is not None
                        and self._clock.now - window_anchor >= window
                    ):
                        break
            result.windows_completed += 1
            obs.inc("fuzzer.windows")

    # -- helpers --------------------------------------------------------------------

    def _inject(self, case: TestCase, result: FuzzResult) -> bytes:
        """Send one test case; returns its encoded payload for reuse.

        The case is encoded exactly once per injection — the bytes are
        handed back so :meth:`_record` never re-encodes on a finding.
        """
        self._sequence = (self._sequence + 1) % 16
        payload = case.encode()
        obs.inc("fuzzer.frames_tx")
        obs.observe("fuzzer.payload_len", len(payload))
        # Raw-buffer splice of what ZWaveFrame(...).encode() would build:
        # prefix | P2(seq) | LEN | DST | payload | CS8 — byte-identical,
        # without a frame object per test case.
        total = const.MAC_HEADER_SIZE + len(payload) + const.CS8_TRAILER_SIZE
        if total > const.MAX_MAC_FRAME_SIZE:
            raise FrameTooLargeError(
                f"frame of {total} bytes exceeds the {const.MAX_MAC_FRAME_SIZE}-byte maximum"
            )
        body = (
            self._inject_prefix
            + bytes((self._sequence, total, self._inject_dst))
            + payload
        )
        self._sut.dongle.inject_raw(body + bytes((cs8(body),)))
        self._clock.advance(self.config.settle_time)
        result.packets_sent += 1
        result.cmdcls_used.add(case.payload.cmdcl)
        if case.payload.cmd is not None:
            result.cmds_used.add(case.payload.cmd)
        return payload

    def _observe(self) -> Observation:
        memory_kind, changes = self._observer.check_memory()
        if memory_kind is not None:
            return Observation(responsive=True, kind=memory_kind, memory_changes=changes)
        host_kind = self._observer.check_host()
        if host_kind is not None:
            return Observation(responsive=True, kind=host_kind)
        if not self._monitor.ping() and not self._monitor.ping():
            return Observation(responsive=False, kind=ObservedKind.HANG)
        return _RESPONSIVE

    def _record(
        self,
        case: TestCase,
        payload: bytes,
        observation: Observation,
        result: FuzzResult,
        start: float,
    ) -> None:
        record = BugRecord.from_payload(
            timestamp=self._clock.now - start,
            packet_no=result.packets_sent,
            payload=payload,
            observed=observation.kind,
        )
        result.bug_log.add(record)
        obs.inc("fuzzer.detections")
        obs.inc(f"fuzzer.detections.{observation.kind.value}")
        result.detections.append(
            DetectionMark(
                timestamp=self._clock.now - start,
                packet_no=result.packets_sent,
                cmdcl=case.payload.cmdcl,
                observed=observation.kind.value,
            )
        )

    def _recover(self, observation: Observation) -> None:
        if observation.kind is ObservedKind.HANG:
            obs.inc("fuzzer.recovery.power_cycle")
            self._observer.power_cycle()
        elif observation.kind in (ObservedKind.HOST_CRASH, ObservedKind.HOST_DOS):
            obs.inc("fuzzer.recovery.restart_host")
            self._observer.restart_host()
        else:
            obs.inc("fuzzer.recovery.restore_memory")
            self._observer.restore_memory()

    def _pad(self, test_start: float) -> None:
        elapsed = self._clock.now - test_start
        remaining = self.config.packet_period - elapsed
        if remaining > 0:
            self._clock.advance(remaining)

    def _sample_timeline(self, result: FuzzResult, start: float) -> None:
        if result.packets_sent % self.TIMELINE_STRIDE == 0:
            result.timeline.append(
                TimelinePoint(
                    self._clock.now - start,
                    result.packets_sent,
                    len(result.detections),
                )
            )


def psm_streams(
    queue: Sequence[int],
    mutator,
    window: float,
    requeue: bool,
) -> Iterator[Stream]:
    """Streams for the position-sensitive modes: one window per CMDCL.

    With *requeue* the queue restarts indefinitely (long trials keep
    fuzzing after the first full pass, as in the paper's 24-hour runs).
    """
    while True:
        for cmdcl in queue:
            yield cmdcl, mutator.generate(cmdcl), window
        if not requeue:
            return


def random_stream(mutator) -> Iterator[Stream]:
    """The single free-running stream of the γ ablation."""
    yield -1, mutator.generate(), None
