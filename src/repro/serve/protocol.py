"""Job-service protocol: specs, statuses and the job state machine.

A *job* is a campaign the service runs on a client's behalf: repeated
fuzzing trials (``kind="trials"``), a stateful session campaign
(``kind="sessions"``), a fault-injection resilience audit
(``kind="chaos"``) or the Table VI/V experiment (``kind="ablation"``/
``"compare"``).  The :class:`JobSpec` here is the entire request — a
handful of plain scalars naming a deterministic computation — which is
what makes the service's correctness contract so strong: the result a
client receives must be **byte-identical** to running the same spec
in-process (see :mod:`repro.serve.results`).

This module is deliberately free of any :mod:`repro.core.resultio`
import: ``resultio`` exposes the :class:`JobSpec`/:class:`JobStatus`
codecs (wire v6) and imports these classes at module level.  Their
layouts are declared here, with :func:`repro.wire.layout`, which also
puts them in the vocabulary the W3xx wire-safety lint proves JSON-clean.

Job identity is content-addressed: :func:`job_id_for` hashes the
canonical spec serialisation, so submitting the same spec twice is
idempotent — the second submission joins the first job instead of
re-running it.

State machine::

    queued ──▶ running ──▶ done
                   └─────▶ failed

A killed service re-enqueues unfinished jobs from its checkpoint on
restart (``running`` collapses back to ``queued``); ``done`` and
``failed`` are terminal.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

from ..errors import CampaignError
from ..faults.plan import STOCK_PLANS, FaultPlan
from ..wire import dumps_wire, encode, is_zero, layout

#: Job lifecycle states, in nominal order.
JOB_QUEUED = "queued"
JOB_RUNNING = "running"
JOB_DONE = "done"
JOB_FAILED = "failed"

JOB_STATES: Tuple[str, ...] = (JOB_QUEUED, JOB_RUNNING, JOB_DONE, JOB_FAILED)

#: Legal state-machine transitions (resume re-queues a running job).
VALID_TRANSITIONS: Dict[str, Tuple[str, ...]] = {
    JOB_QUEUED: (JOB_RUNNING,),
    JOB_RUNNING: (JOB_DONE, JOB_FAILED, JOB_QUEUED),
    # A done job whose stored result document is lost runs again.
    JOB_DONE: (JOB_QUEUED,),
    JOB_FAILED: (),
}

#: The job kinds the service executes.
JOB_KINDS: Tuple[str, ...] = ("trials", "sessions", "chaos", "ablation", "compare")

#: Stock fault-plan names accepted over the wire (no file paths: a spec
#: must be self-contained, never a pointer into the server's filesystem).
STOCK_FAULT_PLANS: Tuple[str, ...] = tuple(STOCK_PLANS)

#: Upper bounds on a spec's work.  A paper-length campaign is 24 simulated
#: hours and the largest in-repo session budget is 580 trials per flow;
#: the bounds sit well above both.  They exist because units have no
#: timeout and ``POST /jobs`` builds ``trials`` units inside the request
#: handler, so an unbounded spec pins a worker or the handler; the CLI
#: applies the same bounds, so every path accepts the same specs.
MAX_HOURS = 168.0
MAX_TRIALS = 10_000


class SpecError(CampaignError):
    """A job spec failed validation; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.reason = message


@layout(versioned=True, elide={"devices": is_zero})
@dataclass(frozen=True)
class JobSpec:
    """Everything the service needs to run one job, as plain scalars.

    ``trials`` is kind-specific: the trial count for ``trials``/``chaos``
    jobs, the per-flow trial override for ``sessions`` jobs (``None``
    keeps each kind's stock default; ablation and compare take none).
    ``hours`` are *simulated* hours, exactly like the CLI.  ``flows``
    applies to session jobs only; empty means every flow in canonical
    order.  ``devices`` applies to compare jobs only and is left off the
    wire when empty, so every other spec keeps its encoding and job id.
    """

    kind: str = "trials"
    device: str = "D1"
    mode: str = "full"
    seed: int = 0
    trials: Optional[int] = None
    hours: float = 1.0
    scheduler: str = "static"
    fault_plan: Optional[str] = None
    flows: Tuple[str, ...] = field(default_factory=tuple)
    devices: Tuple[str, ...] = ()

    def resolved_trials(self) -> Optional[int]:
        """The effective trial count (kind-specific stock default)."""
        if self.trials is not None:
            return self.trials
        if self.kind == "trials":
            return 5
        if self.kind == "chaos":
            return 2
        return None  # sessions: the stock SessionPlan budget; ablation/compare: none


def validate_spec(spec: JobSpec, fault_plan: Optional[FaultPlan] = None) -> None:
    """Reject malformed specs with a structured, field-naming error.

    *fault_plan* is a plan passed beside the spec, as
    :func:`~repro.serve.results.spec_units` takes it (the CLI's plan
    file): it gives a chaos job its plan.
    """
    from ..core.campaign import Mode
    from ..core.scheduler import SCHEDULERS
    from ..core.session import FLOWS
    from ..simulator.testbed import CONTROLLER_IDS

    modes = tuple(mode.name.lower() for mode in Mode)
    if spec.kind not in JOB_KINDS:
        raise SpecError("kind", f"unknown job kind {spec.kind!r}; expected one of {JOB_KINDS}")
    if spec.device not in CONTROLLER_IDS:
        raise SpecError("device", f"unknown device {spec.device!r}")
    if spec.mode not in modes:
        raise SpecError("mode", f"unknown mode {spec.mode!r}; expected one of {modes}")
    if not isinstance(spec.seed, int) or isinstance(spec.seed, bool):
        raise SpecError("seed", "seed must be an integer")
    if spec.trials is not None and (
        not isinstance(spec.trials, int)
        or isinstance(spec.trials, bool)
        or not 1 <= spec.trials <= MAX_TRIALS
    ):
        raise SpecError("trials", f"trials must be an integer in [1, {MAX_TRIALS}] or null")
    # The chained comparison is false for NaN and infinity as well.
    if (
        not isinstance(spec.hours, (int, float))
        or isinstance(spec.hours, bool)
        or not 0 < spec.hours <= MAX_HOURS
    ):
        raise SpecError("hours", f"hours must be a finite number in (0, {MAX_HOURS:g}]")
    if spec.scheduler not in SCHEDULERS:
        raise SpecError(
            "scheduler", f"unknown scheduler {spec.scheduler!r}; expected one of {SCHEDULERS}"
        )
    if spec.fault_plan is not None and spec.fault_plan not in STOCK_FAULT_PLANS:
        raise SpecError(
            "fault_plan",
            f"unknown fault plan {spec.fault_plan!r}; expected one of {STOCK_FAULT_PLANS}",
        )
    if spec.kind == "chaos" and spec.fault_plan is None and fault_plan is None:
        raise SpecError("fault_plan", "chaos jobs require a stock fault plan name")
    if spec.kind != "sessions" and spec.flows:
        raise SpecError("flows", f"flows apply to session jobs only, not {spec.kind!r}")
    for flow in spec.flows:
        if flow not in FLOWS:
            raise SpecError("flows", f"unknown flow {flow!r}; expected a subset of {FLOWS}")
    if len(set(spec.flows)) != len(spec.flows):
        raise SpecError("flows", "duplicate flow names")
    # An experiment runs each of its arms (or fuzzers) once, in mode full.
    experiment = spec.kind in ("ablation", "compare")
    if experiment and spec.trials is not None:
        raise SpecError("trials", f"{spec.kind} jobs take no trial count")
    if experiment and spec.mode != "full":
        raise SpecError("mode", f"{spec.kind} jobs run mode 'full', not {spec.mode!r}")
    if spec.kind != "compare" and spec.devices:
        raise SpecError("devices", f"devices apply to compare jobs only, not {spec.kind!r}")
    for device in spec.devices:
        if device not in CONTROLLER_IDS:
            raise SpecError("devices", f"unknown device {device!r}")
    # One computation, one spelling: sorted and distinct, so it has one job id.
    distinct = sorted(set(spec.devices))
    if spec.kind == "compare" and (not distinct or list(spec.devices) != distinct):
        raise SpecError("devices", "compare jobs require distinct devices in sorted order")
    if spec.devices and spec.device != spec.devices[0]:
        raise SpecError("device", f"compare jobs name devices[0] ({spec.devices[0]!r}) as device")


def spec_key(spec: JobSpec) -> str:
    """Canonical serialisation of a spec (job-identity preimage).

    The spec's wire form without its ``wire_version``: a job's identity
    is what it computes, not which codec revision carried it.
    """
    wire = encode(spec)
    del wire["wire_version"]
    return dumps_wire(wire)


def job_id_for(spec: JobSpec) -> str:
    """Content-addressed job id: equal specs collapse onto one job.

    CRC-32 of the canonical spec serialisation (the same deliberate
    choice as :func:`repro.faults.schedule.derive_seed`: stable across
    processes and interpreter versions, unlike builtin ``hash``).
    """
    return f"job-{zlib.crc32(spec_key(spec).encode('utf-8')):08x}"


@layout(versioned=True)
@dataclass(frozen=True)
class JobStatus:
    """A point-in-time view of one job, as returned by ``GET /jobs/<id>``.

    ``sequence`` is the job's queue ticket (submission order);
    ``units_done``/``units_total`` expose shard-level progress, and
    ``counters`` streams the merged obs counters of every completed unit
    so clients can watch packet/bug counts grow mid-job.
    """

    job_id: str
    state: str
    kind: str
    device: str
    seed: int
    sequence: int
    units_total: int
    units_done: int
    error: str = ""
    counters: Dict[str, int] = field(default_factory=dict)


def valid_transition(current: str, target: str) -> bool:
    """Whether the job state machine allows ``current -> target``."""
    return target in VALID_TRANSITIONS.get(current, ())
