"""Lossless wire serialisation and deterministic merging of results.

Campaign results must cross process boundaries when trials are sharded
across workers (:mod:`repro.core.parallel`).  Pickling the live objects
would work, but it is fragile — any future field holding a
:class:`~repro.zwave.registry.SpecRegistry`, a simulator handle or an open
generator would silently drag megabytes (or fail outright) through every
worker pipe.  Instead, workers reduce their results to a *wire form*: a
tree of plain dicts, lists, strings and numbers that is JSON-serialisable
by construction, so nothing that is not plain data can cross by accident.

The codecs below are named entry points into :mod:`repro.wire`, which
derives every encoder and decoder from the dataclass fields; the layout
facts the type hints cannot say (rows, ``Mode`` by name, the
``wire_version`` envelope, the ``bug_log`` and ``unique`` adapters) are
declared next to their classes.  This module's imports from the package
are the wire vocabulary that the W3xx lint proves JSON-clean.

The round trip is **lossless**: ``campaign_from_wire(campaign_to_wire(r))``
compares equal to ``r`` and renders byte-identical reports, which is what
lets the parallel executor guarantee output identical to a serial run
(``tests/test_parallel_determinism.py`` is the proof).

The second half of this module is the deterministic merge: shard outcomes
are reassembled in canonical seed order — the order the serial loop would
have produced them — regardless of worker completion order.
"""

from __future__ import annotations

from typing import Any, List

from ..faults.plan import DegradationRecord, FaultPlan  # noqa: F401
from ..obs.metrics import MetricsSnapshot, SpanStats  # noqa: F401
from ..radio.trace import TraceRecord  # noqa: F401
from ..serve.protocol import JobSpec, JobStatus
from ..wire import WIRE_VERSION, WireError, WireVersionError, require_wire_version  # noqa: F401
from ..wire import decode, dumps_wire, encode, loads_wire  # noqa: F401
from .baseline import VFuzzResult
from .buglog import BugLog, BugRecord  # noqa: F401
from .campaign import CampaignResult, Mode, UniqueRow  # noqa: F401
from .fuzzer import DetectionMark, FuzzResult, TimelinePoint  # noqa: F401
from .monitor import ObservedKind  # noqa: F401
from .properties import ControllerProperties  # noqa: F401
from .session import SessionBugRecord, SessionPlan, SessionResult  # noqa: F401
from .tester import Signature, VerifiedFinding, VerifiedUnique  # noqa: F401


def campaign_to_wire(result: CampaignResult) -> dict:
    """Reduce a campaign result to plain JSON-serialisable data."""
    return encode(result)


def campaign_from_wire(data: dict) -> CampaignResult:
    """Rebuild the full campaign result from its wire form."""
    return decode(CampaignResult, data, "campaign result")


def vfuzz_to_wire(result: VFuzzResult) -> dict:
    """Reduce a Table V baseline run to plain data."""
    return encode(result)


def vfuzz_from_wire(data: dict) -> VFuzzResult:
    """Rebuild a :class:`VFuzzResult`, rejecting mismatched versions."""
    return decode(VFuzzResult, data, "vfuzz result")


def session_to_wire(result: SessionResult) -> dict:
    """Reduce a session-fuzzer result to plain JSON-serialisable data."""
    return encode(result)


def session_from_wire(data: dict) -> SessionResult:
    """Rebuild a :class:`SessionResult`, rejecting mismatched versions."""
    return decode(SessionResult, data, "session result")


def jobspec_to_wire(spec: JobSpec) -> dict:
    """Reduce a job-service :class:`JobSpec` to plain data (wire v6)."""
    return encode(spec)


def jobspec_from_wire(data: dict) -> JobSpec:
    """Rebuild a :class:`JobSpec`, rejecting mismatched wire versions.

    Layout validation beyond the version check is the caller's job
    (:func:`repro.serve.protocol.validate_spec`) — this codec only
    guarantees both sides agree on the wire format itself.
    """
    return decode(JobSpec, data, "job spec")


def jobstatus_to_wire(status: JobStatus) -> dict:
    """Reduce a job-service :class:`JobStatus` to plain data (wire v6)."""
    return encode(status)


def jobstatus_from_wire(data: dict) -> JobStatus:
    """Rebuild a :class:`JobStatus`, rejecting mismatched wire versions."""
    return decode(JobStatus, data, "job status")


# -- deterministic merging -----------------------------------------------------


def merge_trials(
    device: str,
    mode: Mode,
    duration: float,
    outcomes: List[Any],
) -> "TrialSummary":
    """Reassemble executor outcomes into a :class:`TrialSummary`.

    *outcomes* are :class:`repro.core.parallel.UnitOutcome` records in
    canonical seed order, which the executor guarantees whatever the
    worker scheduling, so aggregate statistics, bug-ID
    unions/intersections and the rendered report are byte-identical at
    every worker count.  Failed shards become structured entries in
    ``summary.failures`` without disturbing the surviving trials.

    The summary also carries a harness metrics snapshot (unit counts,
    per-unit attempts, failure categories), keeping merged
    ``--metrics-out`` documents byte-identical across worker counts.
    """
    from ..obs.metrics import harness_snapshot
    from .trials import TrialSummary  # local import: trials imports us too

    return TrialSummary(
        device=device,
        mode=mode,
        duration=duration,
        trials=[o.result for o in outcomes if o.result is not None],
        failures=[o.failure for o in outcomes if o.result is None and o.failure is not None],
        harness_metrics=harness_snapshot(
            units=len(outcomes),
            attempts=[outcome.attempts for outcome in outcomes],
            failure_categories=[
                outcome.failure.category
                for outcome in outcomes
                if outcome.failure is not None
            ],
        ),
    )
