"""The VFuzz-style baseline (Section IV-C, Table V).

VFuzz (Nkuba et al., IEEE Access 2022) is a protocol-aware MAC-frame fuzzer
for Z-Wave devices.  The comparison baseline reproduces its operating
characteristics as the paper describes them:

* it seeds from **sniffed frames already addressed to the target** and
  mutates the MAC header fields aggressively (it "focuses on the MAC frame
  of the Z-Wave packets"), recomputing the checksum so frames pass the
  integrity check;
* it sweeps the **whole 256 x 256 CMDCL x CMD space** (Table V's coverage
  row) by cycling the two application bytes in place — never changing the
  payload *length*;
* consequence one: most of its packets break the home-id / length /
  destination checks and are rejected, so its application-layer testing
  throughput is a sliver of ZCover's;
* consequence two: header mutations reach the MAC-parsing one-days
  (:data:`repro.simulator.vulnerabilities.DEVICE_MAC_QUIRKS`) that ZCover's
  application-layer-only mutation never touches — reproducing the paper's
  observation that the two tools' finding sets are disjoint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Set, Tuple

from ..errors import CampaignError, FuzzerError
from ..obs.metrics import MetricsCollector, MetricsSnapshot, collecting
from ..simulator.testbed import SystemUnderTest
from ..wire import layout
from ..zwave.checksum import cs8
from .monitor import LivenessMonitor, SutObserver

#: Per-field mutation probabilities: the MAC-fuzzer design centre.
P_MUTATE_HOME_BYTE = 0.7
P_MUTATE_SRC = 0.5
P_MUTATE_P1 = 0.5
P_MUTATE_P2 = 0.5
P_MUTATE_LEN = 0.7
P_MUTATE_DST = 0.7

#: Engine timing, in simulated seconds: one test packet per period, the
#: settle wait after each packet, the liveness ping's timeout, the
#: observer's recovery allowance and the sniffing window for seeds.
PACKET_PERIOD = 0.75
SETTLE_TIME = 0.1
PING_TIMEOUT = 0.5
RECOVERY_TIME = 2.0
SEED_CAPTURE_DURATION = 120.0


@layout(versioned=True)
@dataclass
class VFuzzResult:
    """What a VFuzz trial produced."""

    packets_sent: int = 0
    duration: float = 0.0
    accepted_estimate: int = 0
    quirks_found: List[str] = field(default_factory=list)
    zero_day_payloads: List[bytes] = field(default_factory=list)
    cmdcls_used: Set[int] = field(default_factory=set)
    cmds_used: Set[int] = field(default_factory=set)
    detections: List[Tuple[float, int]] = field(default_factory=list)
    metrics: Optional[MetricsSnapshot] = None

    @property
    def cmdcl_coverage(self) -> int:
        return len(self.cmdcls_used)

    @property
    def cmd_coverage(self) -> int:
        return len(self.cmds_used)

    @property
    def unique_vulnerabilities(self) -> int:
        """The "#Vul." Table V credits to VFuzz: distinct verified bugs.

        MAC quirks are triaged by their distinct crash signatures; any
        application-layer finding would be counted through its payload.
        """
        return len(set(self.quirks_found)) + len(
            {bytes(p[:2]) for p in self.zero_day_payloads}
        )


class VFuzzBaseline:
    """Runs the VFuzz-style MAC-frame fuzzing loop against one SUT."""

    def __init__(self, sut: SystemUnderTest, seed: int = 0):
        self._sut = sut
        self._clock = sut.clock
        self._rng = random.Random(seed)
        self._monitor = LivenessMonitor(
            sut.dongle, sut.clock, sut.controller, timeout=PING_TIMEOUT
        )
        self._observer = SutObserver(sut, recovery_time=RECOVERY_TIME)
        self._seeds: List[bytes] = []

    # -- seeding --------------------------------------------------------------------

    def collect_seeds(self) -> int:
        """Sniff the network and keep plaintext templates for the target.

        Seeds are short, decodable data frames already addressed to the
        controller (device status reports).  S0/S2 encapsulations are
        skipped: an opaque encrypted blob gives a MAC fuzzer nothing to
        model, so VFuzz's generation works from plaintext templates.
        """
        self._sut.dongle.clear_captures()
        self._clock.advance(SEED_CAPTURE_DURATION)
        target = self._sut.controller.node_id
        for capture in self._sut.dongle.drain_captures():
            frame = capture.frame
            if frame is None or frame.is_ack or not frame.payload:
                continue
            if frame.dst != target:
                continue
            if frame.payload[0] in (0x98, 0x9F) or len(frame.payload) > 4:
                continue
            self._seeds.append(capture.raw)
        return len(self._seeds)

    # -- mutation ---------------------------------------------------------------------

    def _mutate(self, seed: bytes, cmdcl: int, cmd: int) -> bytes:
        """One VFuzz test frame: cycle the APL bytes, batter the header."""
        raw = bytearray(seed)
        for i in range(4):
            if self._rng.random() < P_MUTATE_HOME_BYTE:
                raw[i] = self._rng.randrange(256)
        if self._rng.random() < P_MUTATE_SRC:
            raw[4] = self._rng.randrange(256)
        if self._rng.random() < P_MUTATE_P1:
            raw[5] = self._rng.randrange(256)
        if self._rng.random() < P_MUTATE_P2:
            raw[6] = self._rng.randrange(256)
        if self._rng.random() < P_MUTATE_LEN:
            raw[7] = self._rng.randrange(256)
        if self._rng.random() < P_MUTATE_DST:
            raw[8] = self._rng.randrange(256)
        if len(raw) >= 11:
            raw[9] = cmdcl
            raw[10] = cmd
        raw[-1] = cs8(raw[:-1])  # protocol-aware: recompute the checksum
        return bytes(raw)

    def _would_be_accepted(self, raw: bytes) -> bool:
        """Bookkeeping mirror of the target's MAC filters (for reporting)."""
        controller = self._sut.controller
        return (
            int.from_bytes(raw[0:4], "big") == controller.home_id
            and raw[7] == len(raw)
            and raw[8] in (controller.node_id, 0xFF)
        )

    # -- the loop -----------------------------------------------------------------------

    def run(self, duration: float) -> VFuzzResult:
        """Fuzz for *duration* simulated seconds."""
        if not self._seeds and self.collect_seeds() == 0:
            raise FuzzerError("VFuzz heard no traffic to seed from")
        result = VFuzzResult()
        collector = MetricsCollector()
        start = self._clock.now
        deadline = start + duration
        index = 0
        seen_quirks: Set[str] = set()
        baseline_events = len(self._sut.controller.events())
        with collecting(collector):
            while self._clock.now < deadline:
                test_start = self._clock.now
                # Sweep the full 256 x 256 CMDCL x CMD space (Table V), with
                # the command class varying fastest so both dimensions reach
                # full coverage early in the trial.
                cmdcl = index & 0xFF
                cmd = (index + (index >> 8)) & 0xFF
                index += 1
                seed = self._seeds[index % len(self._seeds)]
                raw = self._mutate(seed, cmdcl, cmd)
                result.cmdcls_used.add(cmdcl)
                result.cmds_used.add(cmd)
                if self._would_be_accepted(raw):
                    result.accepted_estimate += 1
                collector.inc("vfuzz.frames_tx")
                self._sut.dongle.inject_raw(raw)
                self._clock.advance(SETTLE_TIME)
                result.packets_sent += 1
                self._check_oracles(result, seen_quirks, baseline_events, start)
                baseline_events = len(self._sut.controller.events())
                remaining = PACKET_PERIOD - (self._clock.now - test_start)
                if remaining > 0:
                    self._clock.advance(remaining)
            collector.inc("vfuzz.accepted_estimate", result.accepted_estimate)
            collector.inc("vfuzz.findings", result.unique_vulnerabilities)
        result.duration = self._clock.now - start
        collector.gauge_max("vfuzz.duration_s", result.duration)
        result.metrics = collector.snapshot()
        return result

    def _check_oracles(
        self,
        result: VFuzzResult,
        seen_quirks: Set[str],
        baseline_events: int,
        start: float,
    ) -> None:
        memory_kind, _ = self._observer.check_memory()
        host_kind = self._observer.check_host()
        unresponsive = False
        if memory_kind is None and host_kind is None:
            unresponsive = not self._monitor.ping() and not self._monitor.ping()
        if memory_kind is None and host_kind is None and not unresponsive:
            return
        # Something fired: attribute it through the firmware event log (the
        # paper's manual post-hoc triage with vendor confirmation).
        new_events = self._sut.controller.events()[baseline_events:]
        for event in new_events:
            if event.quirk_id is not None:
                if event.quirk_id not in seen_quirks:
                    seen_quirks.add(event.quirk_id)
                    result.quirks_found.append(event.quirk_id)
                    result.detections.append(
                        (self._clock.now - start, result.packets_sent)
                    )
            elif event.bug_id is not None:
                result.zero_day_payloads.append(bytes(event.payload))
                result.detections.append(
                    (self._clock.now - start, result.packets_sent)
                )
        # Recover so the trial keeps going.
        if unresponsive:
            self._observer.power_cycle()
        if memory_kind is not None:
            self._observer.restore_memory()
        if host_kind is not None:
            self._observer.restart_host()


def compare_units(
    devices: Tuple[str, ...],
    duration: float,
    seed: int = 0,
    fault_plan: "Optional[FaultPlan]" = None,
    scheduler: str = "static",
) -> "List[CampaignUnit]":
    """The Table V units: a VFuzz then a ZCover campaign per device.  The
    fault plan's in-simulation faults and the scheduler apply to ZCover
    only — the baseline has no fault machinery to degrade through and no
    CMDCL queue to schedule.  Its worker faults target any unit by its
    place in this list, since they hit the executor, not the fuzzer."""
    from ..faults.plan import dumps_plan
    from .campaign import Mode
    from .parallel import CampaignUnit, assign_worker_faults

    plan_json = None if fault_plan is None else dumps_plan(fault_plan)
    units = [
        CampaignUnit(device=device, kind=kind, mode=Mode.FULL, duration=duration, seed=seed,
                     fault_plan_json=plan_json if kind == "zcover" else None,
                     scheduler=scheduler if kind == "zcover" else "static")
        for device in devices
        for kind in ("vfuzz", "zcover")
    ]
    return assign_worker_faults(units, fault_plan)


def merge_compare(outcomes: List[Any]) -> Tuple[Dict[str, VFuzzResult], Dict[str, Any]]:
    """Split executor outcomes into the per-device VFuzz and ZCover results;
    a unit that exhausted its attempts fails the whole comparison."""
    split: Dict[str, Dict[str, Any]] = {"vfuzz": {}, "zcover": {}}
    for outcome in outcomes:
        if outcome.failure is not None:
            raise CampaignError(outcome.failure.render())
        split[outcome.unit.kind][outcome.unit.device] = outcome.result
    return split["vfuzz"], split["zcover"]
