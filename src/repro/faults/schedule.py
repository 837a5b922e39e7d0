"""Compiling fault plans into deterministic schedules.

A :class:`FaultSchedule` compiles a :class:`~repro.faults.plan.FaultPlan`
for one campaign seed.  Compilation is a
**pure function of (plan, seed)**: every random draw flows through
generators seeded by :func:`derive_seed`, which mixes the campaign seed
with a stable CRC-32 of the layer label — never the builtin ``hash()``,
whose string hashing is randomised per process and would silently break
cross-worker determinism (lint rule D104 holds that line).

Per-layer determinism contracts:

* **medium** — one seeded generator consumed in transmission order; the
  simulation is single-threaded, so transmission order (and therefore
  the decision stream) is identical on every run of the same campaign;
* **controller** — periodic events are *computed*, not drawn:
  ``k * every_s`` for ``k >= 1``, so they are trivially order-invariant;
* **worker** — the spec maps a unit's index in its job's unit list to a
  :class:`~repro.faults.worker.WorkerFault` token, applied by the unit
  executor at every worker count, keeping serial and sharded runs aligned
  (the token does not read the seed);
* **campaign** — the abort offset is read straight off the plan.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..wire import encode
from .plan import (
    LAYER_CAMPAIGN,
    LAYER_CONTROLLER,
    LAYER_MEDIUM,
    LAYER_WORKER,
    FaultPlan,
    FaultSpec,
)
from .worker import WorkerFault


def derive_seed(seed: int, label: str) -> int:
    """A stable per-layer sub-seed: campaign seed mixed with a CRC-32.

    ``zlib.crc32`` is deterministic across processes and interpreter
    versions, unlike ``hash(str)`` which is randomised by PYTHONHASHSEED.
    """
    return (seed * 0x9E3779B1 + zlib.crc32(label.encode("utf-8"))) & 0x7FFFFFFF


@dataclass(frozen=True)
class ControllerEvent:
    """One scheduled firmware fault: fires at ``at_s`` simulated seconds."""

    at_s: float
    kind: str
    magnitude: float


class FaultSchedule:
    """The compiled, per-campaign fault schedule for one (plan, seed)."""

    def __init__(self, plan: FaultPlan, seed: int):
        plan.validate()
        self.plan = plan
        self.seed = seed
        self.medium_specs: Tuple[FaultSpec, ...] = plan.layer(LAYER_MEDIUM)
        self.controller_rate_specs: Tuple[FaultSpec, ...] = tuple(
            spec for spec in plan.layer(LAYER_CONTROLLER) if spec.rate > 0.0
        )
        self.controller_periodic_specs: Tuple[FaultSpec, ...] = tuple(
            spec for spec in plan.layer(LAYER_CONTROLLER) if spec.every_s > 0.0
        )
        self.worker_specs: Tuple[FaultSpec, ...] = plan.layer(LAYER_WORKER)
        self._abort = next(
            (
                spec
                for spec in plan.layer(LAYER_CAMPAIGN)
                if spec.kind == "abort" and spec.at_s >= 0.0
            ),
            None,
        )

    # -- per-layer generators (fresh per installation) -------------------------

    def medium_rng(self) -> random.Random:
        return random.Random(derive_seed(self.seed, "faults.medium"))

    def controller_rng(self) -> random.Random:
        return random.Random(derive_seed(self.seed, "faults.controller"))

    # -- controller events -----------------------------------------------------

    def controller_events(self, horizon_s: float) -> List[ControllerEvent]:
        """Every periodic firmware fault due within *horizon_s*, in order."""
        events: List[ControllerEvent] = []
        for spec in self.controller_periodic_specs:
            k = 1
            while k * spec.every_s <= horizon_s:
                events.append(
                    ControllerEvent(k * spec.every_s, spec.kind, spec.magnitude)
                )
                k += 1
        return sorted(events, key=lambda e: (e.at_s, e.kind))

    # -- worker faults ---------------------------------------------------------

    def worker_fault(self, unit_index: int) -> Optional[WorkerFault]:
        """The fault for the unit at *unit_index* in its job's unit list, if any."""
        for spec in self.worker_specs:
            if spec.unit_index in (-1, unit_index):
                return WorkerFault.from_spec_kind(spec.kind)
        return None

    def worker_token(self, unit_index: int) -> Optional[str]:
        fault = self.worker_fault(unit_index)
        return None if fault is None else fault.to_token()

    # -- campaign abort --------------------------------------------------------

    @property
    def abort_at_s(self) -> Optional[float]:
        """Seconds into the fuzzing phase at which the campaign aborts."""
        return None if self._abort is None else self._abort.at_s

    # -- determinism fingerprint -----------------------------------------------

    def describe(self, horizon_s: float = 600.0, draws: int = 32) -> dict:
        """A JSON-clean fingerprint of everything this schedule will do.

        Pure data derived only from ``(plan, seed)`` — the property suite
        asserts two compilations (in any order) produce identical
        descriptions.  *draws* samples the head of the medium decision
        stream so rate faults are covered too.
        """
        rng = self.medium_rng()
        medium_head = [round(rng.random(), 12) for _ in range(draws)]
        ack_rng = self.controller_rng()
        ack_head = [round(ack_rng.random(), 12) for _ in range(draws)]
        return {
            "plan": encode(self.plan),
            "seed": self.seed,
            "medium_decision_head": medium_head,
            "controller_ack_head": ack_head,
            "controller_events": [
                [event.at_s, event.kind, event.magnitude]
                for event in self.controller_events(horizon_s)
            ],
            "worker_tokens": [self.worker_token(i) for i in range(8)],
            "abort_at_s": self.abort_at_s,
        }

