"""The write-ahead checkpoint: kill the service, lose no completed unit.

A JSONL log, one record per line, each wrapped as
``{"crc": <crc32 of the record's canonical JSON>, "record": {...}}``.
Three record kinds:

* ``job`` — a job was accepted: its id, queue ticket and spec wire form;
* ``unit`` — one campaign unit completed: job id, unit index, attempt
  count and the worker's wire-form result (**completed units only** —
  a unit is either fully in the log or absent, never torn);
* ``done`` — a job reached a terminal state (``done``/``failed``).

Records are appended with flush + fsync *before* the service reports the
matching progress, so the log is always at least as advanced as any
observable status.  :func:`load_checkpoint` stops at the first torn,
corrupt or malformed line (a crash mid-append leaves at most one),
making the loaded prefix trustworthy without any repair step.  Each
record is decoded once, against its kind's layout, and the loader keeps
the typed lines.  Replay folds them into per-job state: a job with a
``done`` record is terminal; any other job re-enters the queue with its
completed units preloaded, so a resumed service re-runs only the
missing shards — and because completed units were stored in wire form,
the merged output is byte-identical to a run that was never
interrupted.

Determinism: records are written in completion order, which for one job
is canonical unit order (the runner harvests in index order), and the
CRC covers the canonical ``dumps_wire`` serialisation — equal state,
equal bytes, equal file.
"""

from __future__ import annotations

import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from ..errors import ReproError
from ..wire import decode, dumps_wire, encode, layout
from .protocol import JobSpec, validate_spec

RECORD_JOB = "job"
RECORD_UNIT = "unit"
RECORD_DONE = "done"


# The record layouts.  A unit's result is decoded when it is rehydrated.


@layout(const=(("kind", RECORD_JOB),))
@dataclass(frozen=True)
class JobLine:
    job_id: str
    sequence: int
    spec: JobSpec


@layout(const=(("kind", RECORD_UNIT),))
@dataclass(frozen=True)
class UnitLine:
    job_id: str
    index: int
    attempts: int
    result: dict


@layout(const=(("kind", RECORD_DONE),))
@dataclass(frozen=True)
class DoneLine:
    job_id: str
    state: str
    error: str


_LINES = {RECORD_JOB: JobLine, RECORD_UNIT: UnitLine, RECORD_DONE: DoneLine}

Line = Union[JobLine, UnitLine, DoneLine]


def record_crc(record: dict) -> int:
    """CRC-32 of a record's canonical serialisation."""
    return zlib.crc32(dumps_wire(record).encode("utf-8"))


def encode_line(record: dict) -> str:
    """One checkpoint line: the record wrapped with its CRC key."""
    return dumps_wire({"crc": record_crc(record), "record": record})


def _trusted(record: dict) -> Optional[Line]:
    """A CRC-valid record decoded against its kind's layout, or ``None``."""
    kind = record.get("kind")
    line = _LINES.get(kind) if isinstance(kind, str) else None
    if line is None:
        return None
    try:
        decoded = decode(line, record, f"checkpoint {line.__name__}")
        if line is JobLine:
            validate_spec(decoded.spec)
    except ReproError:
        return None
    return decoded


class CheckpointWriter:
    """Append-only writer; every append is flushed and fsynced.

    The fsync is the contract: once :meth:`append` returns, that record
    survives a SIGKILL.  The service therefore appends a unit record
    *before* counting the unit done anywhere a client could see it.
    """

    def __init__(self, path: str):
        self.path = path
        self._handle = open(path, "a", encoding="utf-8")

    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync before returning)."""
        self._handle.write(encode_line(record) + "\n")
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def __enter__(self) -> "CheckpointWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def load_checkpoint(path: str) -> List[Line]:
    """The trustworthy record prefix of a checkpoint file, decoded.

    Stops at the first line that is not valid JSON, lacks the wrapper
    shape, fails its CRC, fails its kind's layout or carries a spec that
    fails :func:`~repro.serve.protocol.validate_spec` — everything before
    a torn tail is intact by construction (appends are ordered and
    fsynced).  A missing file is an empty checkpoint.
    """
    if not os.path.exists(path):
        return []
    lines: List[Line] = []
    with open(path, "rb") as handle:  # decoded per line: bad UTF-8 ends the prefix there
        for line in handle:
            line = line.strip()
            if not line:
                break
            try:
                wrapper = json.loads(line.decode("utf-8"))
            except (ValueError, RecursionError):
                break
            if not isinstance(wrapper, dict) or "crc" not in wrapper:
                break
            record = wrapper.get("record")
            if not isinstance(record, dict) or wrapper["crc"] != record_crc(record):
                break
            decoded = _trusted(record)
            if decoded is None:
                break
            lines.append(decoded)
    return lines


@dataclass
class JobCheckpoint:
    """Replayed state of one job: its spec, ticket and completed units."""

    job_id: str
    sequence: int
    spec: JobSpec
    #: unit index -> (attempts, wire-form result); completed units only.
    units: Dict[int, Tuple[int, dict]] = field(default_factory=dict)
    #: Terminal state from a ``done`` record, or ``None`` if unfinished.
    final_state: Optional[str] = None
    error: str = ""


def replay_checkpoint(lines: List[Line]) -> List[JobCheckpoint]:
    """Fold decoded lines into per-job state, in first-seen (queue) order.

    Duplicate ``job`` lines (one per service restart) collapse onto the
    first; duplicate ``unit`` lines for one index are last-wins (they
    are identical by determinism anyway).  Lines for unknown job ids —
    impossible under ordered appends, conceivable after truncation — are
    ignored rather than fatal.
    """
    jobs: Dict[str, JobCheckpoint] = {}
    for line in lines:
        job = jobs.get(line.job_id)
        if isinstance(line, JobLine):
            if job is None:
                jobs[line.job_id] = JobCheckpoint(line.job_id, line.sequence, line.spec)
        elif job is None:
            continue
        elif isinstance(line, UnitLine):
            job.units[line.index] = (line.attempts, line.result)
        else:
            job.final_state, job.error = line.state, line.error
    return list(jobs.values())


def job_record(job_id: str, sequence: int, spec: JobSpec) -> dict:
    """Build a ``job`` record (acceptance)."""
    return encode(JobLine(job_id, sequence, spec))


def unit_record(job_id: str, index: int, attempts: int, result: dict) -> dict:
    """Build a ``unit`` record (one completed campaign unit)."""
    return encode(UnitLine(job_id, index, attempts, result))


def done_record(job_id: str, state: str, error: str = "") -> dict:
    """Build a ``done`` record (terminal job state)."""
    return encode(DoneLine(job_id, state, error))
