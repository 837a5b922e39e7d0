"""Lossless wire serialisation of results, plans and job records.

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
declared next to their classes with ``@layout``, and those declarations
are also the vocabulary the W3xx/W401 lint proves JSON-clean.

The round trip is **lossless**: ``campaign_from_wire(campaign_to_wire(r))``
compares equal to ``r`` and renders byte-identical reports, which is what
lets the parallel executor guarantee output identical to a serial run
(``tests/test_parallel_determinism.py`` is the proof).  Shard outcomes
are merged in canonical seed order by
:func:`repro.core.trials.merge_trials`.
"""

from __future__ import annotations

from ..serve.protocol import JobSpec, JobStatus
from ..wire import decode, dumps_wire, encode
from .baseline import VFuzzResult
from .campaign import CampaignResult
from .session import SessionResult

__all__ = [
    "campaign_from_wire",
    "campaign_to_wire",
    "dumps_wire",
    "jobspec_from_wire",
    "jobspec_to_wire",
    "jobstatus_from_wire",
    "jobstatus_to_wire",
    "session_from_wire",
    "session_to_wire",
    "vfuzz_to_wire",
]


def campaign_to_wire(result: CampaignResult) -> dict:
    """Reduce a campaign result to plain JSON-serialisable data."""
    return encode(result)


def campaign_from_wire(data: dict) -> CampaignResult:
    """Rebuild the full campaign result from its wire form."""
    return decode(CampaignResult, data, "campaign result")


def vfuzz_to_wire(result: VFuzzResult) -> dict:
    """Reduce a Table V baseline run to plain data."""
    return encode(result)


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
