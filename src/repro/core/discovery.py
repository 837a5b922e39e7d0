"""Phase 2 — unknown properties discovery (Section III-C).

Two techniques stack:

1. **Spec clustering** (:class:`SpecClusterer`): parse the public
   specification, keep the clusters a controller must implement
   (application, transport encapsulation, management, networking) and
   subtract the NIF-listed classes — yielding the *unlisted candidates*
   (26 on the 17-listing testbed controllers).
2. **Systematic validation testing** (:class:`ValidationTester`): probe
   CMDCL 0x00 up to the cluster's upper bound with harmless one-byte
   payloads and watch for application-level responses.  Confirms which
   candidates the firmware really processes and surfaces classes missing
   from the specification entirely — the proprietary 0x01/0x02.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from ..obs import metrics as obs
from ..obs.tracing import span
from ..radio.clock import SimClock
from ..radio.transceiver import Transceiver
from ..zwave.application import ApplicationPayload
from ..zwave.frame import ZWaveFrame
from ..zwave.registry import SpecRegistry, load_public_registry
from .fingerprint import SCANNER_NODE_ID
from .properties import ControllerProperties


@dataclass(frozen=True)
class ClusterResult:
    """Spec-derived candidates for one fingerprinted controller."""

    controller_relevant: Tuple[int, ...]
    unlisted_candidates: Tuple[int, ...]


class SpecClusterer:
    """Cluster the public specification for controller-relevant classes."""

    def __init__(self, registry: Optional[SpecRegistry] = None):
        self._registry = registry or load_public_registry()

    def cluster(self, listed_cmdcls: Tuple[int, ...]) -> ClusterResult:
        """Spec classes a controller should support, minus the listed ones."""
        relevant = self._registry.controller_relevant_ids()
        listed = set(listed_cmdcls)
        unlisted = tuple(c for c in relevant if c not in listed)
        return ClusterResult(
            controller_relevant=relevant, unlisted_candidates=unlisted
        )


@dataclass(frozen=True)
class ProbeOutcome:
    """What one validation probe observed."""

    cmdcl: int
    responded: bool
    response_cmdcl: Optional[int] = None


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of the systematic 0x00..max sweep."""

    probes: Tuple[ProbeOutcome, ...]
    confirmed_candidates: Tuple[int, ...]
    proprietary: Tuple[int, ...]


class ValidationTester:
    """Probe each command class and watch for successful processing.

    The probe is a one-byte payload carrying only the class identifier —
    deliberately command-less, so it can never reach a command handler (or
    a vulnerability) while still forcing the dispatcher to accept or ignore
    the class.
    """

    RESPONSE_TIMEOUT = 0.75

    def __init__(self, dongle: Transceiver, clock: SimClock):
        self._dongle = dongle
        self._clock = clock

    def probe(self, home_id: int, controller_node_id: int, cmdcl: int) -> ProbeOutcome:
        """Send one class probe and classify the reaction."""
        obs.inc("discovery.probes")
        self._dongle.clear_captures()
        frame = ZWaveFrame(
            home_id=home_id,
            src=SCANNER_NODE_ID,
            dst=controller_node_id,
            payload=ApplicationPayload(cmdcl).encode(),
        )
        self._dongle.inject(frame)
        self._clock.advance(self.RESPONSE_TIMEOUT)
        for capture in self._dongle.captures():
            received = capture.frame
            if received is None or received.src != controller_node_id:
                continue
            if received.is_ack or not received.payload:
                continue
            if received.dst != SCANNER_NODE_ID:
                continue
            return ProbeOutcome(cmdcl, True, received.payload[0])
        return ProbeOutcome(cmdcl, False)

    def sweep(
        self,
        home_id: int,
        controller_node_id: int,
        candidates: Tuple[int, ...],
        registry: SpecRegistry,
        start: int = 0x00,
        upper: Optional[int] = None,
    ) -> ValidationResult:
        """Evaluate classes from *start* to the candidate list's upper limit.

        Responding classes inside the candidate list become *confirmed*;
        responding classes absent from the public specification become
        *proprietary* discoveries (the paper's 0x01 and 0x02).
        """
        limit = upper if upper is not None else (max(candidates) if candidates else 0xFF)
        candidate_set = set(candidates)
        outcomes: List[ProbeOutcome] = []
        confirmed: List[int] = []
        proprietary: List[int] = []
        for cmdcl in range(start, limit + 1):
            outcome = self.probe(home_id, controller_node_id, cmdcl)
            outcomes.append(outcome)
            if not outcome.responded:
                continue
            if cmdcl in candidate_set:
                confirmed.append(cmdcl)
            elif cmdcl not in registry:
                proprietary.append(cmdcl)
        return ValidationResult(
            probes=tuple(outcomes),
            confirmed_candidates=tuple(confirmed),
            proprietary=tuple(proprietary),
        )


def discover_unknown_properties(
    dongle: Transceiver,
    clock: SimClock,
    properties: ControllerProperties,
    registry: Optional[SpecRegistry] = None,
) -> ControllerProperties:
    """Run phase 2 end-to-end, returning enriched controller properties."""
    registry = registry or load_public_registry()
    clusterer = SpecClusterer(registry)
    clustered = clusterer.cluster(properties.listed_cmdcls)
    tester = ValidationTester(dongle, clock)
    with span("discovery.sweep"):
        validated = tester.sweep(
            properties.home_id,
            properties.controller_node_id,
            clustered.unlisted_candidates,
            registry,
        )
    obs.inc("discovery.confirmed", len(validated.confirmed_candidates))
    obs.inc("discovery.proprietary", len(validated.proprietary))
    return ControllerProperties(
        home_id=properties.home_id,
        controller_node_id=properties.controller_node_id,
        observed_node_ids=properties.observed_node_ids,
        listed_cmdcls=properties.listed_cmdcls,
        unlisted_candidates=clustered.unlisted_candidates,
        validated_unknown=validated.confirmed_candidates,
        proprietary=validated.proprietary,
    )
