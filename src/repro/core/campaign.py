"""Campaign orchestration: the experiment configurations of Section IV.

A *campaign* is one fuzzing trial against one Table II controller:

* ``Mode.FULL``  — known + unknown CMDCL discovery + position-sensitive
  mutation (the complete ZCover of Tables III/IV/V and Figure 12);
* ``Mode.BETA``  — known (NIF-listed) CMDCLs only + position-sensitive
  mutation (ablation row 2 of Table VI);
* ``Mode.GAMMA`` — random CMDCL/CMD/PARAM selection, no position
  sensitivity (ablation row 3 of Table VI).

Every campaign runs fingerprinting first (even γ needs the home and node
IDs to build injectable frames), then fuzzes for the configured simulated
duration, then verifies the bug log through the packet tester and
deduplicates findings by verified signature.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Tuple

from ..errors import CampaignError
from ..faults.injector import AbortHook, ControllerFaultInjector, MediumFaultInjector
from ..faults.plan import DegradationRecord, FaultPlan, dumps_plan
from ..faults.schedule import FaultSchedule
from ..obs.metrics import (
    MetricsCollector,
    MetricsSnapshot,
    collecting,
    frames_per_bug,
)
from ..obs.tracing import Tracer, span, tracing_to
from ..simulator.testbed import build_sut
from ..wire import encode, layout
from ..zwave.registry import SpecRegistry, load_full_registry, load_public_registry
from .discovery import discover_unknown_properties
from .fingerprint import fingerprint
from .fuzzer import FuzzerConfig, FuzzingEngine, FuzzResult, psm_streams, random_stream
from .monitor import ObservedKind
from .mutation import PositionSensitiveMutator, RandomMutator, prioritize_static
from .properties import ControllerProperties
from .scheduler import SCHEDULERS, CoverageScheduler
from .tester import PacketTester, Signature, VerifiedFinding, VerifiedUnique

#: Simulated durations used by the paper's experiments.
HOUR = 3600.0
DAY = 24 * HOUR


@layout(by_name=True)
class Mode(Enum):
    """The three configurations of the Table VI ablation."""

    FULL = "ZCover full"
    BETA = "ZCover beta (known CMDCLs only)"
    GAMMA = "ZCover gamma (random mutation)"


#: The scheduler knob values (see :mod:`repro.core.scheduler`).
SCHEDULER_STATIC, SCHEDULER_COVERAGE = SCHEDULERS

#: Ablation-arm key of the coverage-scheduled run.  The three classic
#: arms keep their :class:`Mode` keys; ``run_ablation(scheduler="coverage")``
#: adds a fourth arm under this string key, so existing consumers of the
#: mapping keep working unchanged.
COVERAGE_ARM = "coverage"


def arm_name(key) -> str:
    """Canonical short name of an ablation-arm key (Mode or string)."""
    return key.name if isinstance(key, Mode) else str(key)


@dataclass
class UniqueRow:
    """One ``CampaignResult.unique`` entry on the wire: the signature, the
    verified finding and its first detection, flattened into one object."""

    signature: Signature
    payload_hex: str
    cmdcl: int
    cmd: Optional[int]
    kind: ObservedKind
    duration_s: Optional[float]
    first_detection_time: float
    first_detection_packet: int

    @staticmethod
    def rows(unique: Dict[Signature, VerifiedUnique]) -> List["UniqueRow"]:
        """The wire rows of a ``unique`` map, in its order."""
        return [
            UniqueRow(
                signature,
                u.finding.payload_hex,
                u.finding.cmdcl,
                u.finding.cmd,
                u.finding.kind,
                u.finding.duration_s,
                u.first_detection_time,
                u.first_detection_packet,
            )
            for signature, u in unique.items()
        ]

    @staticmethod
    def table(rows: List["UniqueRow"]) -> Dict[Signature, VerifiedUnique]:
        """The ``unique`` map the rows encode."""
        return {
            row.signature: VerifiedUnique(
                VerifiedFinding(row.payload_hex, row.cmdcl, row.cmd, row.kind, row.duration_s),
                row.first_detection_time,
                row.first_detection_packet,
            )
            for row in rows
        }


@layout(versioned=True, via={"unique": (List[UniqueRow], UniqueRow.rows, UniqueRow.table)})
@dataclass
class CampaignResult:
    """Everything one trial produced, post-verification."""

    device: str
    mode: Mode
    duration: float
    properties: Optional[ControllerProperties]
    fuzz: FuzzResult
    unique: Dict[Signature, VerifiedUnique] = field(default_factory=dict)
    metrics: Optional[MetricsSnapshot] = None
    #: Set when the trial finished gracefully degraded (repro.faults) —
    #: a planned abort or an injected failure cut it short, and the
    #: partial result above is tagged instead of an exception raised.
    degradation: Optional[DegradationRecord] = None
    #: Which scheduler drove the PSM queue ("static" or "coverage").
    scheduler: str = SCHEDULER_STATIC
    #: The coverage scheduler's decision log, ``(cmdcl, window_s, reason)``
    #: per window started; empty under the static scheduler.
    scheduler_trace: Tuple[Tuple[int, float, str], ...] = ()

    @property
    def unique_vulnerabilities(self) -> int:
        """The "#Vul." column of Tables V and VI."""
        return len(self.unique)

    @property
    def matched_bug_ids(self) -> Tuple[int, ...]:
        """Table III bug ids among the verified findings, sorted."""
        ids = {u.bug_id for u in self.unique.values() if u.bug_id is not None}
        return tuple(sorted(ids))

    @property
    def first_zero_day_packet(self) -> Optional[int]:
        """Fuzz frames sent when the first planted zero-day was hit.

        The "Pkts@1st" column of the scheduler comparison — ``None`` when
        no verified finding matched a Table III bug.
        """
        packets = [
            u.first_detection_packet
            for u in self.unique.values()
            if u.bug_id is not None
        ]
        return min(packets) if packets else None

    def packets_to_find(self, bug_ids: Tuple[int, ...]) -> Optional[int]:
        """Frames sent when the *last* of *bug_ids* had been hit.

        ``None`` unless every requested bug was found — the acceptance
        metric behind "finds every static-arm zero-day in strictly fewer
        total fuzz frames".
        """
        if not bug_ids:
            return 0
        per_bug: Dict[int, int] = {}
        for unique in self.unique.values():
            if unique.bug_id is not None:
                packet = unique.first_detection_packet
                prior = per_bug.get(unique.bug_id)
                if prior is None or packet < prior:
                    per_bug[unique.bug_id] = packet
        if not all(bug_id in per_bug for bug_id in bug_ids):
            return None
        return max(per_bug[bug_id] for bug_id in bug_ids)

    def discovery_timeline(self) -> List[Tuple[float, int, Optional[int]]]:
        """(time, packet, bug-id) per unique finding, by discovery time."""
        points = [
            (u.first_detection_time, u.first_detection_packet, u.bug_id)
            for u in self.unique.values()
        ]
        return sorted(points)

    def to_dict(self) -> dict:
        """Machine-readable summary (JSON-serialisable) of the campaign."""
        findings = []
        for unique in sorted(
            self.unique.values(), key=lambda u: u.first_detection_time
        ):
            bug = unique.bug
            findings.append(
                {
                    "bug_id": unique.bug_id,
                    "cve": bug.cve if bug else None,
                    "cmdcl": unique.finding.cmdcl,
                    "cmd": unique.finding.cmd,
                    "kind": unique.finding.kind.value,
                    "duration_s": unique.finding.duration_s,
                    "payload": unique.finding.payload_hex,
                    "first_detection_time": unique.first_detection_time,
                    "first_detection_packet": unique.first_detection_packet,
                }
            )
        props = self.properties
        return {
            "device": self.device,
            "mode": self.mode.name,
            "scheduler": self.scheduler,
            "duration_s": self.duration,
            "packets_sent": self.fuzz.packets_sent,
            "first_zero_day_packet": self.first_zero_day_packet,
            "scheduler_windows": len(self.scheduler_trace),
            "cmdcl_coverage": self.fuzz.cmdcl_coverage,
            "cmd_coverage": self.fuzz.cmd_coverage,
            "detections_with_duplicates": len(self.fuzz.detections),
            "unique_vulnerabilities": self.unique_vulnerabilities,
            "frames_per_bug": None
            if self.metrics is None
            else frames_per_bug(self.metrics),
            "degradation": None
            if self.degradation is None
            else encode(self.degradation),
            "fingerprint": None
            if props is None
            else {
                "home_id": f"{props.home_id:08X}",
                "controller_node_id": props.controller_node_id,
                "known_cmdcls": props.known_count,
                "unknown_cmdcls": props.unknown_count,
            },
            "findings": findings,
        }


def build_queue(
    mode: Mode,
    properties: ControllerProperties,
    knowledge: SpecRegistry,
    strategy: str = "priority",
) -> Tuple[int, ...]:
    """The CMDCL queue for a position-sensitive mode.

    *strategy* selects the ordering — "priority" (command-count descending,
    the paper's design), "ascending" (identifier order) or "reversed"
    (priority inverted).  The alternatives exist for the design-choice
    ablation benches.
    """
    if mode is Mode.FULL:
        queue = prioritize_static(knowledge, properties.all_cmdcls)
    elif mode is Mode.BETA:
        queue = prioritize_static(knowledge, properties.listed_cmdcls)
    else:
        raise CampaignError(f"mode {mode} does not use a CMDCL queue")
    if strategy == "priority":
        return queue
    if strategy == "ascending":
        return tuple(sorted(queue))
    if strategy == "reversed":
        return tuple(reversed(queue))
    raise CampaignError(f"unknown queue strategy {strategy!r}")


def run_campaign(
    device: str = "D1",
    mode: Mode = Mode.FULL,
    duration: float = DAY,
    seed: int = 0,
    fuzzer_config: Optional[FuzzerConfig] = None,
    passive_duration: float = 120.0,
    verify: bool = True,
    queue_strategy: str = "priority",
    tracer: Optional[Tracer] = None,
    fault_plan: Optional[FaultPlan] = None,
    scheduler: str = SCHEDULER_STATIC,
) -> CampaignResult:
    """Run one complete trial: fingerprint → (discover) → fuzz → verify.

    *scheduler* selects how PSM fuzzing windows are assigned: "static"
    walks the priority queue with one fixed C_T window per class (the
    paper's design); "coverage" hands the queue to the adaptive
    :class:`~repro.core.scheduler.CoverageScheduler`.  γ has no queue to
    schedule, so ``Mode.GAMMA`` only accepts "static".

    Every campaign activates a fresh :class:`MetricsCollector` (and binds
    *tracer*, or a private one, to the trial's simulated clock), so the
    instrumented hot paths below it record into ``result.metrics`` without
    any explicit threading.

    With *fault_plan* the trial runs under deterministic fault injection
    (see :mod:`repro.faults`): the plan compiles against *seed* and its
    medium/controller/campaign faults are installed at the start of the
    fuzzing phase.  A planned abort — or any error while a plan is
    active — yields a *partial* result tagged with a
    :class:`DegradationRecord` rather than an exception.
    """
    # The passive scan and the fuzzing phase each run until the simulated
    # clock passes their duration: NaN or infinity would never end them.
    for name, seconds in (("duration", duration), ("passive_duration", passive_duration)):
        if not 0 <= seconds < math.inf:
            raise CampaignError(
                f"{name} must be a non-negative finite number of seconds, got {seconds!r}"
            )
    if scheduler not in SCHEDULERS:
        raise CampaignError(
            f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}"
        )
    if mode is Mode.GAMMA and scheduler != SCHEDULER_STATIC:
        raise CampaignError("mode GAMMA has no CMDCL queue to schedule")
    sut = build_sut(device, seed=seed)
    config = fuzzer_config or FuzzerConfig()
    schedule = None if fault_plan is None else FaultSchedule(fault_plan, seed)

    collector = MetricsCollector()
    if tracer is None:
        tracer = Tracer(sut.clock)
    elif tracer.clock is None:
        tracer.clock = sut.clock

    with collecting(collector), tracing_to(tracer):
        with span("campaign.fingerprint", device=device):
            properties = fingerprint(sut.dongle, sut.clock, passive_duration)
        if mode is Mode.FULL:
            with span("campaign.discovery", device=device):
                properties = discover_unknown_properties(
                    sut.dongle, sut.clock, properties, load_public_registry()
                )

        # ZCover's protocol knowledge: the spec plus the public XML command
        # definitions — which, unlike the official listing, describe the
        # protocol classes' schemas (see DESIGN.md).
        knowledge = load_full_registry()
        rng = random.Random(seed ^ 0x5A5A5A)
        engine = FuzzingEngine(sut, config)

        adaptive: Optional[CoverageScheduler] = None
        if mode is Mode.GAMMA:
            streams = random_stream(RandomMutator(rng))
        else:
            queue = build_queue(mode, properties, knowledge, queue_strategy)
            mutator = PositionSensitiveMutator(knowledge, rng)
            if scheduler == SCHEDULER_COVERAGE:
                adaptive = CoverageScheduler(
                    queue,
                    knowledge,
                    collector,
                    mutator,
                    seed,
                    cmdcl_time=config.cmdcl_time,
                )
                streams = adaptive.streams()
            else:
                streams = psm_streams(
                    queue, mutator, config.cmdcl_time, config.requeue
                )

        degradation: Optional[DegradationRecord] = None
        abort_hook: Optional[AbortHook] = None
        medium_inj: Optional[MediumFaultInjector] = None
        controller_inj: Optional[ControllerFaultInjector] = None
        if schedule is not None:
            medium_inj = MediumFaultInjector(
                schedule.medium_specs, schedule.medium_rng()
            )
            sut.medium.fault_injector = medium_inj
            controller_inj = ControllerFaultInjector(schedule)
            controller_inj.install(sut.controller, sut.clock, horizon_s=duration)
            if schedule.abort_at_s is not None:
                abort_hook = AbortHook(schedule.abort_at_s)
                abort_hook.install(sut.clock)

        fuzz_start = sut.clock.now
        try:
            with span("campaign.fuzz", device=device, mode=mode.name):
                fuzz = engine.run(streams, duration)
        except Exception as exc:
            # Graceful degradation: under an active fault plan a failing
            # trial is a *result* (what survived, plus why it stopped),
            # not an exception.
            if schedule is None:
                raise
            fuzz = FuzzResult(duration=sut.clock.now - fuzz_start)
            degradation = DegradationRecord(
                stage="fuzz",
                reason="error",
                at_s=round(sut.clock.now - fuzz_start, 6),
                faults_injected=_injected_total(medium_inj, controller_inj, abort_hook),
                detail=f"{type(exc).__name__}: {exc}",
            )
        if degradation is None and abort_hook is not None and abort_hook.fired:
            degradation = DegradationRecord(
                stage="fuzz",
                reason="abort",
                at_s=schedule.abort_at_s,
                faults_injected=_injected_total(medium_inj, controller_inj, abort_hook),
            )
        result = CampaignResult(
            device=device,
            mode=mode,
            duration=duration,
            properties=properties,
            fuzz=fuzz,
            degradation=degradation,
            scheduler=scheduler,
            scheduler_trace=() if adaptive is None else adaptive.trace(),
        )
        if verify:
            with span("campaign.verify", device=device):
                result.unique = verify_findings(device, seed, fuzz)

        collector.inc("bugs.unique", result.unique_vulnerabilities)
        for signature, unique in result.unique.items():
            cmdcl, kind, rounded = signature
            dedup = f"{cmdcl:02x}:{kind}:{'-' if rounded is None else rounded}"
            collector.inc(f"bugs.dedup.{dedup}")
            if unique.bug_id is not None:
                collector.inc(f"bugs.id.{unique.bug_id:02d}")
        collector.gauge_max("campaign.duration_s", fuzz.duration)

    result.metrics = collector.snapshot()
    return result


def _injected_total(
    medium_inj: Optional[MediumFaultInjector],
    controller_inj: Optional[ControllerFaultInjector],
    abort_hook: Optional[AbortHook],
) -> int:
    """How many faults the trial's injectors fired, abort included."""
    total = 0
    if medium_inj is not None:
        total += medium_inj.injected
    if controller_inj is not None:
        total += controller_inj.injected
    if abort_hook is not None and abort_hook.fired:
        total += 1
    return total


def verify_findings(device: str, seed: int, fuzz: FuzzResult) -> Dict[Signature, VerifiedUnique]:
    """Replay one representative per coarse bug-log group and deduplicate."""
    tester = PacketTester(device=device, seed=seed)
    groups = []
    for cmdcl, cmd, observed in fuzz.bug_log.coarse_groups():
        record = fuzz.bug_log.first_record(cmdcl, cmd, observed)
        if record is not None:
            groups.append((record.payload, record.timestamp, record.packet_no))
    return tester.verify_log(groups)


def ablation_units(
    device: str = "D1",
    duration: float = HOUR,
    seed: int = 0,
    fault_plan: Optional[FaultPlan] = None,
    scheduler: str = SCHEDULER_STATIC,
) -> "List[CampaignUnit]":
    """The Table VI arms as campaign units, in table order: FULL, BETA and
    GAMMA under the static scheduler (the paper's table), plus FULL under
    the coverage scheduler when *scheduler* is "coverage".  A *fault_plan*
    applies to every arm; its worker faults target an arm by its place in
    that order."""
    if scheduler not in SCHEDULERS:
        raise CampaignError(
            f"unknown scheduler {scheduler!r}; expected one of {SCHEDULERS}"
        )
    arms = [(mode, SCHEDULER_STATIC) for mode in (Mode.FULL, Mode.BETA, Mode.GAMMA)]
    if scheduler == SCHEDULER_COVERAGE:
        arms.append((Mode.FULL, SCHEDULER_COVERAGE))
    from .parallel import CampaignUnit, assign_worker_faults

    plan_json = None if fault_plan is None else dumps_plan(fault_plan)
    units = [
        CampaignUnit(device=device, mode=mode, duration=duration, seed=seed,
                     fault_plan_json=plan_json, scheduler=arm_scheduler)
        for mode, arm_scheduler in arms
    ]
    return assign_worker_faults(units, fault_plan)


def merge_ablation(outcomes: "List[UnitOutcome]") -> Dict[object, CampaignResult]:
    """The ablation mapping of executor outcomes: classic arms under their
    :class:`Mode`, the coverage-scheduled arm under :data:`COVERAGE_ARM`.
    Every arm is a row of the table, so a failed unit fails the experiment.
    """
    results: Dict[object, CampaignResult] = {}
    for outcome in outcomes:
        if outcome.failure is not None:
            raise CampaignError(outcome.failure.render())
        unit = outcome.unit
        key = COVERAGE_ARM if unit.scheduler == SCHEDULER_COVERAGE else unit.mode
        results[key] = outcome.result
    return results


def run_ablation(
    device: str = "D1",
    duration: float = HOUR,
    seed: int = 0,
    workers: int = 1,
    fault_plan: Optional[FaultPlan] = None,
    scheduler: str = SCHEDULER_STATIC,
) -> Dict[object, CampaignResult]:
    """The Table VI experiment: every arm of :func:`ablation_units`, one
    executor unit each; ``workers > 1`` shards the arms across a process
    pool and the returned mapping is identical to the serial run."""
    from .parallel import execute_units

    units = ablation_units(device, duration, seed, fault_plan, scheduler)
    return merge_ablation(execute_units(units, workers=workers))
