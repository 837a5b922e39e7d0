"""The write-ahead checkpoint and the result store: kill the service, lose
no completed unit and no finished document.

The log is JSONL, one record per line, each wrapped as
``{"crc": <crc32 of the record's canonical JSON>, "record": {...}}``.
Three record kinds:

* ``job`` — a job was accepted: its id, queue ticket and spec wire form;
* ``unit`` — one campaign unit completed: job id, unit index, attempt
  count and the worker's wire-form result (**completed units only** —
  a unit is either fully in the log or absent, never torn);
* ``done`` — a job reached a terminal state (``done``/``failed``).

Records are appended with flush + fsync *before* the service reports the
matching progress, so the log is always at least as advanced as any
observable status.  :func:`load_prefix` stops at the first torn,
corrupt or malformed line (a crash mid-append leaves at most one),
making the loaded prefix trustworthy without any repair step.  Each
record is decoded once, against its kind's layout, and the loader keeps
the typed lines.  Replay folds them into per-job state: a job with a
``done`` record is terminal; any other job re-enters the queue with its
completed units preloaded, so a resumed service re-runs only the
missing shards — and because completed units were stored in wire form,
the merged output is byte-identical to a run that was never
interrupted.

A finished job's document lives in the :class:`ResultStore`, one file
per job id in a directory beside the log, written before the job's
``done`` record (temp file, fsync, rename), so ``done`` stays the commit
point.  Once a job is finished its ``unit`` lines are dead weight:
:meth:`CheckpointWriter.compact` rewrites the log without them (temp
file, fsync, rename), keeping every ``job`` and ``done`` line and the
``unit`` lines of unfinished jobs byte for byte.  A kill at any step of
a compaction leaves either the old log or the new one, and both replay
to the same state.

Determinism: records are written in completion order, which for one job
is canonical unit order (the runner harvests in index order), and the
CRC covers the canonical ``dumps_wire`` serialisation — equal state,
equal bytes, equal file.
"""

from __future__ import annotations

import collections
import json
import os
import zlib
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Union

from ..errors import ReproError
from ..wire import decode, dumps_wire, encode, layout
from .protocol import JobSpec, validate_spec
from .results import RESULT_SCHEMA, RESULT_SCHEMA_VERSION

#: Suffix of the result-store directory beside a checkpoint file.
RESULTS_SUFFIX = ".results"

#: Result documents kept in memory, most recently used; a miss reads the
#: job's file.  A client fetches a result soon after the job finishes, so
#: a handful covers the fetches of a closed loop.
RESULT_CACHE_JOBS = 8

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


#: Bytes a compaction copies per read, so it never holds the whole log.
_COPY_CHUNK = 1 << 16


def sync_directory(directory: str) -> None:
    """Fsync *directory*, so every rename into it is durable."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(descriptor)
    finally:
        os.close(descriptor)


def replace_durably(path: str, chunks: Iterable[bytes]) -> int:
    """Put the bytes of *chunks* at *path* whole or not at all: temp file,
    fsync, rename.  Returns how many bytes were written."""
    temp = path + ".tmp"
    written = 0
    with open(temp, "wb") as handle:
        for chunk in chunks:
            handle.write(chunk)
            written += len(chunk)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(temp, path)
    return written


def _ranges(path: str, ranges: List[Tuple[int, int]]) -> Iterator[bytes]:
    """The bytes of *path* in each ``[start, end)`` range, a chunk at a time."""
    with open(path, "rb") as handle:
        for start, end in ranges:
            handle.seek(start)
            while start < end:
                chunk = handle.read(min(_COPY_CHUNK, end - start))
                if not chunk:
                    return
                start += len(chunk)
                yield chunk


def load_prefix(path: str) -> List[Tuple[Line, int]]:
    """The trustworthy record prefix of a checkpoint file, decoded, with
    each line's length in bytes.

    Stops at the first line that is not valid JSON, lacks the wrapper
    shape or its newline, fails its CRC, fails its kind's layout or
    carries a spec that fails :func:`~repro.serve.protocol.validate_spec`
    — everything before a torn tail is intact by construction (appends
    are ordered and fsynced).  A missing file is an empty checkpoint.
    """
    if not os.path.exists(path):
        return []
    lines: List[Tuple[Line, int]] = []
    with open(path, "rb") as handle:  # decoded per line: bad UTF-8 ends the prefix there
        for raw in handle:
            line = raw.strip()
            if not line or not raw.endswith(b"\n"):
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
            lines.append((decoded, len(raw)))
    return lines


class CheckpointWriter:
    """Append-only writer; every append is flushed and fsynced.

    The fsync is the contract: once :meth:`append` returns, that record
    survives a SIGKILL.  The service therefore appends a unit record
    *before* counting the unit done anywhere a client could see it.

    *prefix* is the :func:`load_prefix` of *path*: the writer appends
    after it, and remembers where each ``unit`` line sits so that
    :meth:`compact` can cut them out without reading the log again.
    """

    def __init__(self, path: str, prefix: Sequence[Tuple[Line, int]] = ()):
        self.path = path
        #: Bytes of trusted records in the file; appends follow them.
        self.size = 0
        #: ``(offset, length, job id)`` of each ``unit`` line, in file order.
        self._units: List[Tuple[int, int, str]] = []
        for line, length in prefix:
            if isinstance(line, UnitLine):
                self._units.append((self.size, length, line.job_id))
            self.size += length
        self._handle = open(path, "ab")
        #: Whether the file holds bytes past the trusted prefix (a torn tail).
        self.torn = os.fstat(self._handle.fileno()).st_size != self.size

    def append(self, record: dict) -> None:
        """Durably append one record (flush + fsync before returning)."""
        data = (encode_line(record) + "\n").encode("utf-8")
        self._handle.write(data)
        self._handle.flush()
        os.fsync(self._handle.fileno())
        if record["kind"] == RECORD_UNIT:
            self._units.append((self.size, len(data), record["job_id"]))
        self.size += len(data)

    def compact(self, finished: Callable[[str], bool]) -> bool:
        """Rewrite the log without the ``unit`` lines of *finished* jobs.

        Every other line keeps its bytes and its order; a torn tail is
        dropped.  The new log is written to a temp file, fsynced and
        renamed over the old one, so a kill at any step leaves one of the
        two; then the directory is fsynced, so the rename, and every
        append made after it, outlives a power loss.  The caller makes the finished jobs' result files
        durable first.  Returns whether the log was rewritten: with
        nothing to drop it is left alone.
        """
        kept: List[Tuple[int, int, str]] = []
        copied: List[Tuple[int, int]] = []
        start = shift = 0
        for offset, length, job_id in self._units:
            if finished(job_id):
                copied.append((start, offset))
                start = offset + length
                shift += length
            else:
                kept.append((offset - shift, length, job_id))
        if not shift and not self.torn:
            return False
        copied.append((start, self.size))
        self._handle.close()
        self.size = replace_durably(self.path, _ranges(self.path, copied))
        sync_directory(os.path.dirname(self.path) or os.curdir)
        self._handle = open(self.path, "ab")
        self._units = kept
        self.torn = False
        return True

    def close(self) -> None:
        """Close the underlying file (idempotent)."""
        if self._handle is not None:
            self._handle.close()
            self._handle = None


def trusted_document(text: str, job_id: str, spec: JobSpec) -> bool:
    """Whether *text* is a result document this build may serve for the job.

    It must parse, carry the current result schema and version, name
    *job_id*, and embed *spec* in the current wire version — so a file
    from another build, of another spec, or cut short is never served.
    """
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError):
        return False
    return (
        isinstance(doc, dict)
        and doc.get("schema") == RESULT_SCHEMA
        and doc.get("schema_version") == RESULT_SCHEMA_VERSION
        and doc.get("job_id") == job_id
        and doc.get("spec") == encode(spec)
    )


class ResultStore:
    """Finished jobs' result documents: one file per job id, and an LRU.

    :meth:`put` writes a document durably (temp file, fsync, rename) and
    keeps its text among the :data:`RESULT_CACHE_JOBS` most recently used;
    :meth:`get`
    serves from those, or reads the job's file on a miss.  A file is
    served only if :func:`trusted_document` accepts it.  ``bytes`` is the
    size of the documents the store holds for the service's jobs.
    """

    def __init__(self, directory: str):
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self.bytes = 0
        self._sizes: Dict[str, int] = {}
        self._cache: "collections.OrderedDict[str, str]" = collections.OrderedDict()

    def _path(self, job_id: str) -> str:
        return os.path.join(self.directory, job_id + ".json")

    def _remember(self, job_id: str, text: str) -> None:
        self._cache[job_id] = text
        self._cache.move_to_end(job_id)
        if len(self._cache) > RESULT_CACHE_JOBS:
            self._cache.popitem(last=False)

    def _count(self, job_id: str, size: int) -> None:
        self.bytes += size - self._sizes.pop(job_id, 0)
        if size:
            self._sizes[job_id] = size

    def put(self, job_id: str, text: str) -> None:
        """Store a finished job's document; durable once this returns."""
        self._count(job_id, replace_durably(self._path(job_id), [text.encode("utf-8")]))
        self._remember(job_id, text)

    def load(self, job_id: str, spec: JobSpec) -> Optional[str]:
        """The job's stored document if its file is trusted, else ``None``."""
        try:
            with open(self._path(job_id), "rb") as handle:
                text = handle.read().decode("utf-8")
        except (OSError, UnicodeDecodeError):
            text = None
        if text is None or not trusted_document(text, job_id, spec):
            self._count(job_id, 0)
            return None
        self._count(job_id, len(text))
        return text

    def get(self, job_id: str, spec: JobSpec) -> Optional[str]:
        """The job's document: from memory, else its trusted file, else ``None``."""
        text = self._cache.get(job_id)
        if text is not None:
            self._cache.move_to_end(job_id)
            return text
        text = self.load(job_id, spec)
        if text is not None:
            self._remember(job_id, text)
        return text

    def sync(self) -> None:
        """Fsync the directory, so every rename into it is durable."""
        sync_directory(self.directory)


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

    Duplicate ``job`` lines collapse onto the first, whatever their spec:
    the service refuses a second spec with the same job id, so a
    different one can only come from outside, and a stored result is
    trusted only if it embeds the first spec.  Duplicate ``unit`` lines
    for one index are last-wins (they are identical by determinism
    anyway), and so are ``done`` lines.  Lines for unknown job ids —
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
