"""Fault plans: failure as a first-class, reproducible campaign input.

ZCover's real-world campaigns run against flaky RF links, controllers
that hang mid-fuzz and hour-long hardware sessions (PAPER.md §V: the
lost-ping hang detector and the power-cycle recovery path exist because
the hardware *did* misbehave).  The simulator used to exercise those
paths only incidentally — a lossy link was conjured by parking the
attacker 85 m away, a worker crash by a magic string on the campaign
unit.  A :class:`FaultPlan` replaces those accidents with a declarative,
JSON-clean description of what must go wrong:

* **medium** layer — ``drop`` / ``corrupt`` / ``duplicate`` / ``delay``
  applied per transmission on the shared RF channel;
* **controller** layer — ``hang`` / ``spurious-reset`` / ``slow-ack``
  applied to the virtual hub's firmware;
* **worker** layer — ``crash`` / ``raise`` applied to the
  process-pool shard running a campaign unit;
* **campaign** layer — ``abort`` cuts the fuzzing phase short, producing
  a partial result tagged with a :class:`DegradationRecord`.

Plans are compiled into deterministic schedules by
:class:`repro.faults.schedule.FaultSchedule`: the same ``(plan, seed)``
pair always yields the same injected faults, serial or sharded, which is
what keeps resilience-audit reports byte-identical across runs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Tuple

from ..errors import ReproError
from ..wire import decode, encode, is_negative, is_zero, layout

#: Plan document envelope, mirroring the obs/lint schema convention.
SCHEMA = "zcover-fault-plan"
SCHEMA_VERSION = 1

#: The four injection layers, in canonical order.
LAYER_MEDIUM = "medium"
LAYER_CONTROLLER = "controller"
LAYER_WORKER = "worker"
LAYER_CAMPAIGN = "campaign"

#: Legal fault kinds per layer (the plan validator's single source).
KINDS_BY_LAYER: Dict[str, Tuple[str, ...]] = {
    LAYER_MEDIUM: ("drop", "corrupt", "duplicate", "delay"),
    LAYER_CONTROLLER: ("hang", "spurious-reset", "slow-ack"),
    LAYER_WORKER: ("crash", "raise"),
    LAYER_CAMPAIGN: ("abort",),
}


class FaultPlanError(ReproError):
    """A fault plan does not match the expected schema or constraints."""


@layout(
    elide={
        "rate": is_zero,
        "every_s": is_zero,
        "at_s": is_negative,
        "magnitude": is_zero,
        "unit_index": is_negative,
    },
)
@dataclass(frozen=True)
class FaultSpec:
    """One declared fault.  Which fields matter depends on the kind:

    * rate-driven faults (medium ``drop``/``corrupt``/``duplicate``/
      ``delay``, controller ``slow-ack``) fire per event with
      probability ``rate`` drawn from the layer's seeded generator;
    * periodic faults (controller ``hang``/``spurious-reset``) fire
      every ``every_s`` simulated seconds;
    * one-shot faults (campaign ``abort``) fire at ``at_s`` seconds into
      the fuzzing phase;
    * worker faults target the unit at ``unit_index`` in its series
      (``-1`` = every unit).

    ``magnitude`` is the kind's intensity: hang/slow-ack/delay duration
    in seconds.
    """

    layer: str
    kind: str
    rate: float = 0.0
    every_s: float = 0.0
    at_s: float = -1.0
    magnitude: float = 0.0
    unit_index: int = -1

    def validate(self) -> None:
        """Raise :class:`FaultPlanError` on any out-of-vocabulary field."""
        kinds = KINDS_BY_LAYER.get(self.layer)
        if kinds is None:
            raise FaultPlanError(f"unknown fault layer {self.layer!r}")
        if self.kind not in kinds:
            raise FaultPlanError(
                f"layer {self.layer!r} has no fault kind {self.kind!r} "
                f"(expected one of {', '.join(kinds)})"
            )
        if not 0.0 <= self.rate <= 1.0:
            raise FaultPlanError(f"rate {self.rate} outside [0, 1]")
        if self.every_s < 0.0:
            raise FaultPlanError(f"every_s {self.every_s} must be >= 0")
        if self.magnitude < 0.0:
            raise FaultPlanError(f"magnitude {self.magnitude} must be >= 0")

    def to_wire(self) -> dict:
        """Plain-data form; defaulted fields are elided for stable docs."""
        return encode(self)


@layout(error=FaultPlanError, const=(("schema", SCHEMA), ("schema_version", SCHEMA_VERSION)))
@dataclass(frozen=True)
class FaultPlan:
    """A named, ordered collection of fault specs."""

    name: str
    faults: Tuple[FaultSpec, ...] = ()

    def validate(self) -> None:
        for spec in self.faults:
            spec.validate()

    def layer(self, layer: str) -> Tuple[FaultSpec, ...]:
        """The specs of one layer, in plan order."""
        return tuple(spec for spec in self.faults if spec.layer == layer)

    def to_wire(self) -> dict:
        return encode(self)


def _plan_from_data(data: object) -> FaultPlan:
    """Decode and validate a parsed plan document."""
    if not isinstance(data, dict):
        raise FaultPlanError(f"fault plan must be a JSON object, got {type(data).__name__}")
    plan = decode(FaultPlan, data, "fault plan")
    plan.validate()
    return plan


def dumps_plan(plan: FaultPlan) -> str:
    """Canonical serialisation: sorted keys, indent 2, trailing newline."""
    return json.dumps(plan.to_wire(), sort_keys=True, indent=2) + "\n"


def save_plan(plan: FaultPlan, path: str) -> None:
    """Write *plan* to *path* in canonical form."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_plan(plan))


def load_plan(path: str) -> FaultPlan:
    """Read a plan file written by :func:`save_plan` (or by hand)."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise FaultPlanError(f"{path}: not valid JSON: {exc}") from None
    return _plan_from_data(data)


def loads_plan(text: str) -> FaultPlan:
    """Parse a plan from a JSON string (the unit wire form)."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise FaultPlanError(f"not valid JSON: {exc}") from None
    return _plan_from_data(data)


# -- stock plans ---------------------------------------------------------------


def canonical_mixed_plan() -> FaultPlan:
    """The canonical mixed plan: every in-process layer at audit rates.

    This is the plan the chaos CLI defaults to, the golden file pins and
    the paper-mapping docs reference: a marginal RF link (drop/corrupt/
    duplicate/delay), a hub that hangs and spontaneously reboots, slow
    acknowledgements, and a mid-fuzz abort that exercises the graceful
    degradation path.
    """
    return FaultPlan(
        name="canonical-mixed",
        faults=(
            FaultSpec(LAYER_MEDIUM, "drop", rate=0.05),
            FaultSpec(LAYER_MEDIUM, "corrupt", rate=0.03),
            FaultSpec(LAYER_MEDIUM, "duplicate", rate=0.02),
            FaultSpec(LAYER_MEDIUM, "delay", rate=0.02, magnitude=0.05),
            FaultSpec(LAYER_CONTROLLER, "hang", every_s=180.0, magnitude=4.0),
            FaultSpec(LAYER_CONTROLLER, "spurious-reset", every_s=420.0),
            FaultSpec(LAYER_CONTROLLER, "slow-ack", rate=0.2, magnitude=0.3),
            FaultSpec(LAYER_CAMPAIGN, "abort", at_s=480.0),
        ),
    )


def lossy_link_plan(drop_rate: float = 0.4, corrupt_rate: float = 0.1) -> FaultPlan:
    """A badly placed antenna, without magic distance parameters."""
    return FaultPlan(
        name="lossy-link",
        faults=(
            FaultSpec(LAYER_MEDIUM, "drop", rate=drop_rate),
            FaultSpec(LAYER_MEDIUM, "corrupt", rate=corrupt_rate),
        ),
    )


def flaky_controller_plan(
    hang_every_s: float = 120.0, hang_s: float = 3.0, reset_every_s: float = 300.0
) -> FaultPlan:
    """A hub that hangs and spontaneously reboots during the session."""
    return FaultPlan(
        name="flaky-controller",
        faults=(
            FaultSpec(LAYER_CONTROLLER, "hang", every_s=hang_every_s, magnitude=hang_s),
            FaultSpec(LAYER_CONTROLLER, "spurious-reset", every_s=reset_every_s),
            FaultSpec(LAYER_CONTROLLER, "slow-ack", rate=0.3, magnitude=0.3),
        ),
    )


#: The built-in plans by name: the one list of stock plan names, which
#: is also what the job protocol accepts over the wire.
STOCK_PLANS = {
    "canonical": canonical_mixed_plan,
    "lossy": lossy_link_plan,
    "flaky": flaky_controller_plan,
}


def stock_plan(name: str) -> FaultPlan:
    """Resolve a built-in plan name (``canonical``, ``lossy``, ``flaky``)."""
    builder = STOCK_PLANS.get(name)
    if builder is None:
        raise FaultPlanError(
            f"unknown stock plan {name!r} (expected one of {', '.join(sorted(STOCK_PLANS))})"
        )
    return builder()


# -- degradation ---------------------------------------------------------------


@dataclass(frozen=True)
class DegradationRecord:
    """Why a campaign under faults returned a partial result.

    JSON-clean by construction: it rides the :mod:`repro.core.resultio`
    wire codec inside :class:`~repro.core.campaign.CampaignResult`.
    """

    stage: str  # campaign phase that was cut short ("fuzz", "verify", ...)
    reason: str  # "abort" for planned aborts, the error class otherwise
    at_s: float  # simulated time of the degradation
    faults_injected: int  # total injected faults up to that point
    detail: str = ""

    def to_wire(self) -> dict:
        return encode(self)
