"""Job records and the FIFO queue: the service's in-memory state.

One :class:`JobRecord` per distinct spec, one :class:`JobQueue` per
service.  The queue is FIFO by *sequence ticket* (assigned under a lock
at submission), so execution order is a pure function of arrival order —
the queue-order determinism property the test suite pins.  Submission is
idempotent: the job id is content-addressed
(:func:`~repro.serve.protocol.job_id_for`), so re-POSTing an identical
spec joins the existing job instead of queuing a duplicate run.  The id
is a CRC-32, so two different specs can share one; every id hit compares
the specs, and a different spec is refused (:class:`JobIdCollision`)
rather than handed the other job's record.

The queued jobs are kept by ticket beside the full record map: a record
tells its queue when it enters or leaves the ``queued`` state, so
:meth:`JobQueue.next_queued` and :meth:`JobQueue.depth` cost what is
waiting, not every job the service has ever accepted.

The lock makes the queue safe to touch from the asyncio loop *and* from
foreign threads (the black-box tests submit from the test thread while
the service loop runs); all methods are non-blocking apart from that
lock, so holding it inside the event loop is harmless.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

from ..errors import CampaignError
from .protocol import (
    JOB_QUEUED,
    JobSpec,
    JobStatus,
    job_id_for,
    valid_transition,
)


class JobIdCollision(CampaignError):
    """A spec's job id is already held by a different spec."""

    def __init__(self, job_id: str):
        super().__init__(f"job id {job_id} is already held by a different spec")
        self.job_id = job_id


class JobRecord:
    """Mutable service-side state of one job (shared, lock-protected)."""

    def __init__(self, spec: JobSpec, job_id: str, sequence: int):
        self.spec = spec
        self.job_id = job_id
        self.sequence = sequence
        self.state = JOB_QUEUED
        self.units_total = 0
        self.units_done = 0
        self.error = ""
        #: Merged obs counters of completed units (progress streaming).
        self.counters: Dict[str, int] = {}
        #: Checkpoint-restored units: index -> (attempts, wire result).
        self.preloaded: Dict[int, Tuple[int, dict]] = {}
        #: The queue that keeps this record's ticket while it is queued.
        self.queue: Optional["JobQueue"] = None

    def advance(self, target: str) -> None:
        """Move the state machine, rejecting illegal transitions loudly."""
        if not valid_transition(self.state, target):
            raise CampaignError(
                f"job {self.job_id}: illegal transition {self.state} -> {target}"
            )
        was_queued = self.state == JOB_QUEUED
        self.state = target
        if self.queue is None or was_queued == (target == JOB_QUEUED):
            return
        if was_queued:
            self.queue._dequeued(self)
        else:
            self.queue._requeued(self)

    def status(self) -> JobStatus:
        """A point-in-time :class:`JobStatus` snapshot of this record."""
        return JobStatus(
            job_id=self.job_id,
            state=self.state,
            kind=self.spec.kind,
            device=self.spec.device,
            seed=self.spec.seed,
            sequence=self.sequence,
            units_total=self.units_total,
            units_done=self.units_done,
            error=self.error,
            counters=dict(self.counters),
        )


class JobQueue:
    """Thread-safe FIFO of job records, idempotent on submission."""

    def __init__(self):
        self._lock = threading.Lock()
        #: Every record, in arrival (ticket) order.
        self._jobs: Dict[str, JobRecord] = {}
        #: The queued records by ticket.
        self._queued: Dict[int, JobRecord] = {}
        self._next_sequence = 0

    def submit(self, spec: JobSpec) -> Tuple[JobRecord, bool]:
        """Enqueue *spec*; returns ``(record, created)``.

        ``created`` is ``False`` when an identical spec was already
        submitted — the existing record (whatever its state) is returned,
        which is what makes duplicate submission harmless.  A different
        spec with the same job id raises :class:`JobIdCollision`.
        """
        job_id = job_id_for(spec)
        with self._lock:
            existing = self._jobs.get(job_id)
            if existing is not None:
                if existing.spec != spec:
                    raise JobIdCollision(job_id)
                return existing, False
            record = JobRecord(spec, job_id, self._next_sequence)
            self._next_sequence += 1
            self._register(record)
            return record, True

    def restore(self, record: JobRecord) -> None:
        """Re-register a checkpoint-restored record, keeping its ticket.

        Restored jobs carry their original sequence numbers; fresh
        submissions continue after the highest restored ticket so arrival
        order stays globally monotonic across restarts.
        """
        with self._lock:
            if record.job_id in self._jobs:
                return
            self._register(record)
            self._next_sequence = max(self._next_sequence, record.sequence + 1)

    def _register(self, record: JobRecord) -> None:
        """Add *record* to the map and, if queued, to the ticket order."""
        self._jobs[record.job_id] = record
        record.queue = self
        if record.state == JOB_QUEUED:
            self._queued[record.sequence] = record

    def _requeued(self, record: JobRecord) -> None:
        """*record* re-entered ``queued``."""
        with self._lock:
            self._queued[record.sequence] = record

    def _dequeued(self, record: JobRecord) -> None:
        """*record* left ``queued``."""
        with self._lock:
            del self._queued[record.sequence]

    def get(self, job_id: str) -> Optional[JobRecord]:
        """The record for *job_id*, or ``None``."""
        with self._lock:
            return self._jobs.get(job_id)

    def next_queued(self) -> Optional[JobRecord]:
        """The oldest record still in the queued state, or ``None``."""
        with self._lock:
            return self._queued[min(self._queued)] if self._queued else None

    def depth(self) -> int:
        """How many jobs are waiting (queued, not yet running)."""
        with self._lock:
            return len(self._queued)

    def all_records(self) -> List[JobRecord]:
        """Every record, in sequence (arrival) order."""
        with self._lock:
            return list(self._jobs.values())
