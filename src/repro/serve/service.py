"""The asyncio job service: HTTP/JSON front, worker-pool back.

Pure stdlib: a hand-rolled HTTP/1.1 exchange over
``asyncio.start_server`` (one request per connection, ``Connection:
close``) — no web framework, matching the repo's no-new-dependencies
rule.  The interesting machinery is behind the socket:

* a single **runner task** takes jobs off the
  :class:`~repro.serve.jobs.JobQueue` in ticket order with a look-ahead
  of one job (:data:`LOOKAHEAD_JOBS`): as soon as it picks a job it
  submits that job's units to the pool, behind the units of the job
  still settling ahead of it, so the worker has the next job's units to
  run while the job ahead writes its document and ``done`` record.
  Jobs still settle and finish strictly in ticket order — unit records,
  then the document, then the ``done`` record — so execution order is a
  pure function of arrival order;
* a look-ahead job is never charged for the job ahead: if that job broke
  the pool (a crash respawns it), the look-ahead job's attempts on the
  dead executor are dropped and it goes back to ``queued`` and starts
  again on the new pool before it settles.  The reverse is not covered:
  with two or more workers, a look-ahead unit that crashes its worker
  while the job ahead still has a unit running costs that unit an
  attempt, as it would a unit of its own job;
* each job's units run through the same attempt policy as the batch
  executor (:func:`~repro.core.parallel.unit_attempts`) on a persistent
  :class:`~repro.core.parallel.WorkerPool`, settled **in canonical index
  order**, so the merged document is byte-identical to an in-process
  run;
* every completed unit is appended to the write-ahead checkpoint
  (:mod:`repro.serve.checkpoint`) *before* it is observable as progress,
  so a SIGKILL can lose at most in-flight work, never completed work;
* a finished job's document goes to the result store — a file per job
  beside the checkpoint (temp file, fsync, rename) before the ``done``
  record — and only the
  :data:`~repro.serve.checkpoint.RESULT_CACHE_JOBS` most recently used
  texts stay in memory.  Without ``--checkpoint`` the store is a private
  temp directory, removed at shutdown;
* the checkpoint is compacted at start-up and every
  :data:`COMPACT_EVERY_JOBS` finished jobs: a finished job keeps only
  its ``job`` and ``done`` lines.  At start-up a finished job whose
  result file is trusted is restored as it stands; otherwise its
  document is rebuilt from its ``unit`` lines, or, if those are gone,
  the job runs again — the same bytes either way;
* SIGTERM/SIGINT trigger a graceful drain: queued-but-unstarted units
  (the look-ahead job's too) are cancelled, in-flight units finish and
  are checkpointed, the interrupted jobs collapse back to ``queued``,
  and the next service pointed at the same checkpoint resumes
  mid-trial-set with byte-identical output.

Routes::

    POST /jobs                submit a JobSpec (wire v6); idempotent
    GET  /jobs                all job statuses, in ticket order
    GET  /jobs/<id>           one job's status
    GET  /jobs/<id>/result    the canonical result document (bytes); a
                              done job whose stored result is lost
                              answers 409 and runs again
    GET  /jobs/<id>/progress  merged obs counters of completed units
    GET  /metrics             the service's own obs snapshot
    GET  /healthz             liveness probe

``POST /jobs`` answers 409 ``job-id-collision`` to a spec whose job id
another spec already holds.  A service holds an exclusive lock on its
result store for its life, so two services never share a checkpoint.
Forked pool workers close the listening sockets, the checkpoint and the
lock, so after a ``kill -9`` of the service alone the port and the
checkpoint are free; and they exit within :data:`PARENT_POLL_S` seconds
once the service is gone.

:class:`ServiceThread` hosts the whole service on a background thread
with an ephemeral port — the black-box test harness talks to it over
real sockets, and its ``stop(drain=False)`` simulates a hard kill.
"""

from __future__ import annotations

import asyncio
import collections
import fcntl
import functools
import json
import os
import shutil
import socket
import sys
import tempfile
import threading
import time
import weakref
from concurrent.futures import Future
from typing import Deque, Dict, Generator, List, Optional, Set, Tuple

from ..core.parallel import UnitOutcome, WorkerPool, unit_attempts
from ..core.resultio import jobspec_from_wire, jobstatus_to_wire
from ..errors import ReproError
from ..obs.export import snapshot_to_document
from ..obs.metrics import MetricsCollector
from ..radio.clock import wall_monotonic
from ..wire import WireError, WireVersionError, dumps_wire
from .checkpoint import (
    RESULTS_SUFFIX,
    CheckpointWriter,
    ResultStore,
    done_record,
    job_record,
    load_prefix,
    replay_checkpoint,
    unit_record,
)
from .jobs import JobIdCollision, JobQueue, JobRecord
from .protocol import JOB_DONE, JOB_FAILED, JOB_QUEUED, JOB_RUNNING, SpecError
from .results import (
    document_from_outcomes,
    dumps_result_document,
    rehydrate_unit_result,
    spec_units,
)

_REASONS = {
    200: "OK",
    201: "Created",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Content Too Large",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
}

#: Largest request body the service reads; a JobSpec is well under 1 KiB.
MAX_BODY_BYTES = 1 << 20

#: Most header lines one request may carry.
MAX_HEADER_LINES = 64

#: Wall-clock seconds a client gets to deliver its whole request.
REQUEST_READ_TIMEOUT_S = 10.0

#: Jobs the runner starts behind the job still settling.  One keeps the
#: pool busy across a job boundary; a deeper look-ahead only holds more
#: units that a crash or a drain has to throw away.
LOOKAHEAD_JOBS = 1

#: Finished jobs between two compactions of the checkpoint.
COMPACT_EVERY_JOBS = 64

_JSON = "application/json"

#: Seconds between a forked worker's checks that its service still runs.
PARENT_POLL_S = 0.5

#: Every live service's listening sockets, checkpoint writers, and the
#: descriptors holding their result stores' locks.  A forked process (a
#: pool worker) closes them, so only the service itself holds the port,
#: the log and the lock.  Fork hooks are per process, so these
#: registries are too.
_LISTENERS: "weakref.WeakSet[socket.socket]" = weakref.WeakSet()
_WRITERS: "weakref.WeakSet[CheckpointWriter]" = weakref.WeakSet()
_LOCKS: Set[int] = set()


def _close_inherited() -> None:
    """In a process forked from a service: close what only the service may
    hold, and exit once the service is gone."""
    serving = bool(_LISTENERS or _WRITERS or _LOCKS)
    for listener in list(_LISTENERS):
        listener.close()
    for writer in list(_WRITERS):
        writer.close()  # every append is flushed, so closing writes nothing
    for descriptor in list(_LOCKS):
        os.close(descriptor)
    _LOCKS.clear()
    if serving:
        threading.Thread(target=_exit_with_parent, args=(os.getppid(),), daemon=True).start()


def _exit_with_parent(parent: int) -> None:
    """End this process once *parent* has died: a SIGKILLed service's
    pool workers would otherwise live on, reparented, holding memory."""
    while os.getppid() == parent:
        time.sleep(PARENT_POLL_S)
    os._exit(1)


if hasattr(os, "register_at_fork"):  # POSIX; elsewhere workers are not forked
    os.register_at_fork(after_in_child=_close_inherited)


def _lock(directory: str) -> int:
    """Take the exclusive lock on a result store's directory, so no
    second service restores, appends to or compacts the same checkpoint.
    Returns the descriptor that holds it; closing it releases the lock."""
    descriptor = os.open(directory, os.O_RDONLY)
    try:
        fcntl.flock(descriptor, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        os.close(descriptor)
        raise ReproError(f"{directory} is in use by another service") from None
    _LOCKS.add(descriptor)
    return descriptor


def _unlock(descriptor: int) -> None:
    _LOCKS.discard(descriptor)
    os.close(descriptor)


def _bind(host: str, port: int) -> List[socket.socket]:
    """Listening sockets on every address *host* resolves to, as
    ``asyncio.start_server`` binds them: ``""`` is every interface, and a
    name such as ``localhost`` gets one socket per address.  Port 0 is
    resolved by the first bind and reused for the rest.  Each socket
    listens at once, so the port is held from here on.  Bound here, not
    by asyncio, so that the fork hook holds socket objects it can close."""
    infos = socket.getaddrinfo(
        host or None, port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
    )
    listeners: List[socket.socket] = []
    try:
        for family, kind, proto, _, address in dict.fromkeys(infos):
            try:
                listener = socket.socket(family, kind, proto)
            except OSError:
                continue  # a family this host cannot open, as asyncio skips it
            listeners.append(listener)
            listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
            if family == socket.AF_INET6:
                listener.setsockopt(socket.IPPROTO_IPV6, socket.IPV6_V6ONLY, 1)
            listener.bind((address[0], port, *address[2:]))
            listener.listen()
            port = listener.getsockname()[1]
    except OSError:
        for listener in listeners:
            listener.close()
        raise
    if not listeners:
        raise OSError(f"no address to listen on for host {host!r}")
    _LISTENERS.update(listeners)
    return listeners


def _error_body(kind: str, **fields) -> str:
    """A structured error document: ``{"error": {"kind": ..., ...}}``."""
    payload = {"kind": kind}
    for key in sorted(fields):
        payload[key] = fields[key]
    return json.dumps({"error": payload}, sort_keys=True)


class _JobRun:
    """A started job: its outcomes, its attempt policy and the future that
    policy waits on next.

    ``origin`` is the executor the units went to; ``error`` is an
    exception the start raised, which fails the job when its turn to
    settle comes.
    """

    def __init__(self, record: JobRecord, origin: object, started: float):
        self.record = record
        self.origin = origin
        self.started = started
        self.outcomes: List[UnitOutcome] = []
        self.core: Optional[Generator] = None
        self.future: Optional[Future] = None
        self.error: Optional[Exception] = None


class ZCoverService:
    """One service instance: queue, pool, checkpoint, HTTP front."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        checkpoint_path: Optional[str] = None,
    ):
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.workers = workers
        self.checkpoint_path = checkpoint_path
        self.queue = JobQueue()
        self.collector = MetricsCollector()
        self.pool: Optional[WorkerPool] = None
        self._writer: Optional[CheckpointWriter] = None
        self.results: Optional[ResultStore] = None
        #: The descriptor holding the result store's lock (see :func:`_lock`).
        self._lock: Optional[int] = None
        #: The store's directory when it is private to this service life.
        self._private_results: Optional[str] = None
        self._finished_since_compaction = 0
        #: The size counters' current values (see :meth:`_count_sizes`).
        self._counted: Dict[str, int] = {}
        self._servers: List[asyncio.AbstractServer] = []
        self._runner_task: Optional[asyncio.Task] = None
        #: The task settling the oldest started job, and the jobs started
        #: behind it, in ticket order.
        self._settling: Optional[asyncio.Task] = None
        self._lookahead: Deque[_JobRun] = collections.deque()
        self._respawns_counted = 0
        self._wake: Optional[asyncio.Event] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._draining = False
        self._aborted = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the sockets, restore the checkpoint, then serve and start
        the runner.

        Neither a second service on the port of a live one nor one on
        another port with the same checkpoint gets past here: the first
        fails to bind, the second to lock the result store, before it
        reads the checkpoint the live one is writing.
        """
        self._wake = asyncio.Event()
        self._shutdown = asyncio.Event()
        listeners = _bind(self.host, self.port)
        self.port = listeners[0].getsockname()[1]
        for listener in listeners:
            self._servers.append(
                await asyncio.start_server(
                    self._handle_client, sock=listener, start_serving=False
                )
            )
        self.pool = WorkerPool(self.workers)
        if self.checkpoint_path is None:
            self._private_results = tempfile.mkdtemp(prefix="zcover-results-")
            directory = self._private_results
        else:
            directory = self.checkpoint_path + RESULTS_SUFFIX
        try:
            self.results = ResultStore(directory)
            self._lock = _lock(directory)
            self._restore_checkpoint()
        except BaseException:
            for server in self._servers:
                server.close()
            if self._lock is not None:
                _unlock(self._lock)
                self._lock = None
            raise
        for server in self._servers:
            await server.start_serving()
        self._runner_task = asyncio.get_running_loop().create_task(self._runner())

    async def wait_finished(self) -> None:
        """Block until shutdown is requested, then tear everything down."""
        assert self._shutdown is not None
        await self._shutdown.wait()
        for task in (self._runner_task, self._settling):
            if task is not None:
                try:
                    await task
                except asyncio.CancelledError:
                    pass
        for server in self._servers:
            server.close()
            await server.wait_closed()
        if self.pool is not None:
            self.pool.drain(wait=not self._aborted)
        if self._writer is not None:
            self._writer.close()
        if self._lock is not None:
            _unlock(self._lock)
            self._lock = None
        if self._private_results is not None:
            shutil.rmtree(self._private_results, ignore_errors=True)

    def request_shutdown(self) -> None:
        """Graceful drain: finish in-flight units, checkpoint, exit."""
        self._draining = True
        self._cancel_lookahead()
        if self._wake is not None:
            self._wake.set()
        if self._shutdown is not None:
            self._shutdown.set()

    def abort(self) -> None:
        """Simulated kill: cancel the runner and the settling job mid-unit,
        no drain.

        The checkpoint is still intact — appends are fsynced before
        progress is visible — which is exactly what the kill-and-resume
        test exercises.
        """
        self._aborted = True
        self._draining = True
        for task in (self._runner_task, self._settling):
            if task is not None:
                task.cancel()
        if self._shutdown is not None:
            self._shutdown.set()

    # -- checkpoint restore ----------------------------------------------------

    def _restore_checkpoint(self) -> None:
        """Replay the checkpoint file into queue state (if configured), then
        compact it.

        A finished job whose result file is trusted is restored as it
        stands, without its units; an unfinished one keeps its completed
        units for the runner.  An empty or missing checkpoint is left
        alone.
        """
        if self.checkpoint_path is None:
            return
        prefix = load_prefix(self.checkpoint_path)
        for entry in replay_checkpoint([line for line, _ in prefix]):
            record = JobRecord(entry.spec, entry.job_id, entry.sequence)
            record.units_total = len(spec_units(entry.spec))
            if entry.final_state == JOB_FAILED:
                record.state = JOB_FAILED
                record.error = entry.error
            elif entry.final_state == JOB_DONE and self.results.load(entry.job_id, entry.spec):
                record.units_done = record.units_total
                record.state = JOB_DONE
            else:
                record.preloaded = dict(entry.units)
                if entry.final_state == JOB_DONE:
                    self._rebuild_result(record)
                else:
                    self.collector.inc("serve.jobs.resumed")
            self.queue.restore(record)
        self._writer = CheckpointWriter(self.checkpoint_path, prefix)
        _WRITERS.add(self._writer)
        self._count_sizes()
        self._compact()

    def _rebuild_result(self, record: JobRecord) -> None:
        """Rebuild a done job's missing or untrusted result from its units.

        If any unit is no longer in the log, the job stays queued and the
        runner re-runs the missing shards — the same bytes, since units
        are deterministic.
        """
        outcomes = self._preloaded_outcomes(record)
        if any(outcome.result is None for outcome in outcomes):
            return
        self.results.put(
            record.job_id,
            dumps_result_document(document_from_outcomes(record.spec, outcomes)),
        )
        self.collector.inc("serve.results.rebuilt")
        record.preloaded = {}
        record.units_done = len(outcomes)
        record.state = JOB_DONE

    def _finished(self, job_id: str) -> bool:
        """Whether *job_id* is done or failed, so its units are dead weight."""
        record = self.queue.get(job_id)
        return record is not None and record.state in (JOB_DONE, JOB_FAILED)

    def _compact(self) -> None:
        """Make the stored results durable, then compact the checkpoint."""
        self._finished_since_compaction = 0
        if self._writer is None:
            return
        if self._writer.size or self._writer.torn:
            self.results.sync()
        if self._writer.compact(self._finished):
            self.collector.inc("serve.wal.compactions")
            self._count_sizes()

    def _count_sizes(self) -> None:
        """Move the size counters to the store's and the log's sizes."""
        sizes = {"serve.results.bytes": self.results.bytes}
        if self._writer is not None:
            sizes["serve.wal.bytes"] = self._writer.size
        for name, size in sizes.items():
            if size != self._counted.get(name, 0):
                self.collector.inc(name, size - self._counted.get(name, 0))
                self._counted[name] = size

    def _preloaded_outcomes(self, record: JobRecord) -> list:
        """Outcomes in canonical order, filled from checkpointed units.

        A stored result that no longer decodes (a record from another
        build) is left out, so its unit runs again.
        """
        outcomes = [UnitOutcome(unit=unit) for unit in spec_units(record.spec)]
        for index in sorted(record.preloaded):
            if 0 <= index < len(outcomes):
                attempts, wire = record.preloaded[index]
                outcome = outcomes[index]
                try:
                    outcome.result = rehydrate_unit_result(outcome.unit, wire)
                except WireError:
                    continue
                outcome.attempts = attempts
        return outcomes

    # -- the runner ------------------------------------------------------------

    async def _runner(self) -> None:
        """Start jobs in ticket order, up to :data:`LOOKAHEAD_JOBS` behind
        the one settling, and settle them one at a time in the same order.

        A drain stops the starting; the jobs already started still settle,
        so their in-flight units are checkpointed before the runner exits.
        """
        assert self._wake is not None
        while True:
            if self._settling is not None and self._settling.done():
                self._settling = None
            if self._settling is None and self._lookahead:
                self._settling = self._settle_next()
                continue
            room = self._settling is None or len(self._lookahead) < LOOKAHEAD_JOBS
            record = self.queue.next_queued() if room and not self._draining else None
            if record is not None:
                run = self._start_job(record, behind=self._settling is not None)
                if self._settling is None:
                    self._settling = asyncio.get_running_loop().create_task(self._settle(run))
                else:
                    self._lookahead.append(run)
                continue
            if self._draining and self._settling is None:
                return
            woken = asyncio.ensure_future(self._wake.wait())
            waiters = [woken] if self._settling is None else [woken, self._settling]
            try:
                await asyncio.wait(waiters, timeout=0.1, return_when=asyncio.FIRST_COMPLETED)
            finally:
                woken.cancel()
            self._wake.clear()

    def _start_job(self, record: JobRecord, behind: bool) -> _JobRun:
        """Mark *record* running and submit its units to the pool.

        *behind* says a job ahead of it is still settling, so its units
        queue behind that job's.
        """
        record.advance(JOB_RUNNING)
        self.collector.inc("serve.jobs.started")
        if behind:
            self.collector.inc("serve.jobs.queued_ahead")
        return self._submit_units(record, wall_monotonic())

    def _submit_units(self, record: JobRecord, started: float) -> _JobRun:
        """Submit a running job's first attempts through the shared attempt
        policy; checkpoint-restored units count as done already."""
        assert self.pool is not None
        run = _JobRun(record, self.pool.executor, started)
        try:
            run.outcomes = self._preloaded_outcomes(record)
            record.units_total = len(run.outcomes)
            record.units_done = 0
            record.counters = {}
            for outcome in run.outcomes:
                if outcome.result is not None:
                    self._count_done(record, outcome)
            run.core = unit_attempts(
                run.outcomes,
                self.pool,
                report=functools.partial(self._unit_settled, record),
                draining=lambda: self._draining,
                rehydrate=rehydrate_unit_result,
            )
            run.future = next(run.core)
        except StopIteration:
            pass  # nothing left to run
        except Exception as exc:
            run.error = exc
        return run

    def _settle_next(self) -> Optional[asyncio.Task]:
        """Start settling the oldest look-ahead job, now that the job ahead
        of it has finished.

        If the job ahead broke the pool, this job's units went to an
        executor that is gone: its attempts there are not its own, so it
        goes back to ``queued`` and, unless draining, starts again on the
        new pool.
        """
        assert self.pool is not None
        run = self._lookahead.popleft()
        if run.origin is not self.pool.executor:
            if run.core is not None:
                run.core.close()
            run.record.advance(JOB_QUEUED)
            self.collector.inc("serve.jobs.restarted")
            if self._draining:
                return None
            run.record.advance(JOB_RUNNING)
            run = self._submit_units(run.record, run.started)
        return asyncio.get_running_loop().create_task(self._settle(run))

    def _cancel_lookahead(self) -> None:
        """Cancel the look-ahead jobs' queued units; in-flight ones finish
        and settle in their turn."""
        for run in self._lookahead:
            if run.future is None:
                continue
            try:
                run.future = run.core.throw(KeyboardInterrupt())
            except StopIteration:
                run.future = None

    async def _settle(self, run: _JobRun) -> None:
        """Settle a started job's units in index order, checkpointing each
        as it completes, then finish the job; a drain re-queues it."""
        record = run.record
        try:
            if run.error is not None:
                raise run.error
            future = run.future
            while future is not None:
                settled = asyncio.wrap_future(future)
                await asyncio.wait([settled])
                error = future.exception()
                if error is not None:
                    settled.exception()  # read here, so asyncio does not log it
                try:
                    future = run.core.send(
                        (None, error) if error is not None else (future.result(), None)
                    )
                except StopIteration:
                    future = None
        except asyncio.CancelledError:
            raise
        except Exception as exc:
            self._finish(record, JOB_FAILED, f"{type(exc).__name__}: {exc}")
        else:
            if any(o.result is None and o.failure is None for o in run.outcomes):
                # Drained mid-job: completed units are checkpointed; the job
                # re-queues so the next service life resumes where we stopped.
                record.advance(JOB_QUEUED)
            else:
                self._finish_with_document(record, run.outcomes)
        assert self.pool is not None
        if self.pool.respawns > self._respawns_counted:
            self.collector.inc("serve.pool.respawns", self.pool.respawns - self._respawns_counted)
            self._respawns_counted = self.pool.respawns
        self.collector.record_span(
            f"serve.job.{record.spec.kind}",
            int((wall_monotonic() - run.started) * 1e6),
        )

    def _unit_settled(
        self, record: JobRecord, index: int, outcome: UnitOutcome, wire: Optional[dict]
    ) -> None:
        """Checkpoint a completed unit before its progress is visible."""
        if outcome.result is None:
            self.collector.inc("serve.units.failed")
            return
        if self._writer is not None:
            self._writer.append(unit_record(record.job_id, index, outcome.attempts, wire))
        self.collector.inc("serve.units.completed")
        self._count_done(record, outcome)

    def _count_done(self, record: JobRecord, outcome: UnitOutcome) -> None:
        """Fold one completed unit into the job's progress counters."""
        record.units_done += 1
        metrics = getattr(outcome.result, "metrics", None)
        if metrics is not None:
            for key, value in metrics.counters.items():
                # Interned: every finished job keeps its counters, and the
                # names a worker sends arrive as fresh strings each time.
                key = sys.intern(key)
                record.counters[key] = record.counters.get(key, 0) + value

    def _finish_with_document(self, record: JobRecord, outcomes: list) -> None:
        """Build the canonical result document, store it, finish the job."""
        try:
            self.results.put(
                record.job_id,
                dumps_result_document(document_from_outcomes(record.spec, outcomes)),
            )
        except Exception as exc:
            self._finish(record, JOB_FAILED, f"{type(exc).__name__}: {exc}")
            return
        self._finish(record, JOB_DONE, "")

    def _finish(self, record: JobRecord, state: str, error: str) -> None:
        """Advance to a terminal state and write the ``done`` record; every
        :data:`COMPACT_EVERY_JOBS` finished jobs, compact the checkpoint."""
        record.error = error
        record.advance(state)
        if self._writer is not None:
            self._writer.append(done_record(record.job_id, state, error))
        self.collector.inc(
            "serve.jobs.completed" if state == JOB_DONE else "serve.jobs.failed"
        )
        self._finished_since_compaction += 1
        if self._finished_since_compaction >= COMPACT_EVERY_JOBS:
            self._compact()
        self._count_sizes()

    # -- the HTTP front --------------------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """One request/response exchange (HTTP/1.1, connection: close)."""
        try:
            status, body, ctype = await asyncio.wait_for(
                self._handle_request(reader), timeout=REQUEST_READ_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            status, body, ctype = 408, _error_body("timeout"), _JSON
        except Exception:
            status, body, ctype = 500, _error_body("internal"), _JSON
        payload = body.encode("utf-8")
        head = (
            f"HTTP/1.1 {status} {_REASONS.get(status, 'OK')}\r\n"
            f"Content-Type: {ctype}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            "Connection: close\r\n\r\n"
        )
        self.collector.inc(f"serve.http.{status}")
        try:
            writer.write(head.encode("latin-1") + payload)
            await writer.drain()
            writer.close()
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass  # client went away mid-response; nothing to clean up

    async def _handle_request(
        self, reader: asyncio.StreamReader
    ) -> Tuple[int, str, str]:
        """Parse one request off the stream and route it.

        The read is bounded: at most :data:`MAX_HEADER_LINES` headers
        (431) and a declared body of at most :data:`MAX_BODY_BYTES` (413,
        answered without reading it); a body cut short by the client is a
        400.  The caller bounds the whole read by
        :data:`REQUEST_READ_TIMEOUT_S` (408).
        """
        try:
            request_line = await reader.readline()
        except ValueError:  # longer than the stream's line limit
            return 400, _error_body("request-line"), _JSON
        parts = request_line.decode("latin-1", "replace").split()
        if len(parts) != 3:
            return 400, _error_body("request-line"), _JSON
        method, target = parts[0].upper(), parts[1]
        length = 0
        for _ in range(MAX_HEADER_LINES + 1):
            try:
                header = await reader.readline()
            except ValueError:
                return 431, _error_body("headers", reason="line too long"), _JSON
            if header in (b"\r\n", b"\n", b""):
                break
            name, _, value = header.decode("latin-1", "replace").partition(":")
            if name.strip().lower() == "content-length":
                try:
                    length = int(value.strip())
                except ValueError:
                    return 400, _error_body("content-length"), _JSON
                if length < 0:
                    return 400, _error_body("content-length"), _JSON
        else:
            return 431, _error_body("headers", limit=MAX_HEADER_LINES), _JSON
        if length > MAX_BODY_BYTES:
            return 413, _error_body("body-size", limit=MAX_BODY_BYTES), _JSON
        try:
            body = await reader.readexactly(length) if length > 0 else b""
        except asyncio.IncompleteReadError as exc:
            return (
                400,
                _error_body("truncated-body", expected=length, received=len(exc.partial)),
                _JSON,
            )
        path = target.partition("?")[0]
        return self._route(method, path, body)

    def _route(self, method: str, path: str, body: bytes) -> Tuple[int, str, str]:
        """Dispatch one parsed request to its handler."""
        if path == "/jobs" and method == "POST":
            return self._post_job(body)
        if path == "/jobs" and method == "GET":
            return self._get_jobs()
        if path == "/metrics" and method == "GET":
            return self._get_metrics()
        if path == "/healthz" and method == "GET":
            body_text = json.dumps({"ok": True, "queue_depth": self.queue.depth()})
            return 200, body_text, _JSON
        if path.startswith("/jobs/"):
            return self._route_job(method, path)
        return 404, _error_body("not-found", path=path), _JSON

    def _route_job(self, method: str, path: str) -> Tuple[int, str, str]:
        """Routes under ``/jobs/<id>`` (status, result, progress)."""
        parts = path.strip("/").split("/")
        if method != "GET" or len(parts) not in (2, 3):
            return 405, _error_body("method", path=path), _JSON
        record = self.queue.get(parts[1])
        if record is None:
            return 404, _error_body("unknown-job", job_id=parts[1]), _JSON
        if len(parts) == 2:
            return 200, dumps_wire(jobstatus_to_wire(record.status())), _JSON
        if parts[2] == "result":
            return self._get_result(record)
        if parts[2] == "progress":
            return self._get_progress(record)
        return 404, _error_body("not-found", path=path), _JSON

    def _post_job(self, body: bytes) -> Tuple[int, str, str]:
        """``POST /jobs``: validate, enqueue (idempotently), checkpoint."""
        try:
            data = json.loads(body.decode("utf-8"))
        except (ValueError, RecursionError) as exc:
            return 400, _error_body("body", reason=str(exc)), _JSON
        try:
            spec = jobspec_from_wire(data)
        except WireVersionError as exc:
            return (
                400,
                _error_body(
                    "wire-version", found=exc.found, expected=exc.expected
                ),
                _JSON,
            )
        except WireError as exc:
            return 400, _error_body("layout", reason=str(exc)), _JSON
        try:
            from .protocol import validate_spec

            validate_spec(spec)
        except SpecError as exc:
            return 400, _error_body("spec", field=exc.field, reason=exc.reason), _JSON
        try:
            record, created = self.queue.submit(spec)
        except JobIdCollision as exc:
            return 409, _error_body("job-id-collision", job_id=exc.job_id), _JSON
        if created:
            record.units_total = len(spec_units(spec))
            if self._writer is not None:
                self._writer.append(job_record(record.job_id, record.sequence, spec))
            self.collector.inc("serve.jobs.accepted")
            self.collector.gauge_max("serve.queue.depth", self.queue.depth())
            if self._wake is not None:
                self._wake.set()
        else:
            self.collector.inc("serve.jobs.duplicate")
        status = 201 if created else 200
        return status, dumps_wire(jobstatus_to_wire(record.status())), _JSON

    def _get_jobs(self) -> Tuple[int, str, str]:
        """``GET /jobs``: every status, in ticket order."""
        statuses = [
            jobstatus_to_wire(record.status())
            for record in self.queue.all_records()
        ]
        return 200, json.dumps({"jobs": statuses}, sort_keys=True), _JSON

    def _get_result(self, record: JobRecord) -> Tuple[int, str, str]:
        """``GET /jobs/<id>/result``: the canonical document, or 409.

        A done job whose stored document is gone or untrusted answers 409
        ``result-lost`` and goes back to the queue to run again.
        """
        if record.state == JOB_DONE:
            text = self.results.get(record.job_id, record.spec)
            if text is not None:
                return 200, text, _JSON
            record.advance(JOB_QUEUED)
            self.collector.inc("serve.results.lost")
            self._count_sizes()
            if self._wake is not None:
                self._wake.set()
            return 409, _error_body("result-lost", job_id=record.job_id), _JSON
        if record.state == JOB_FAILED:
            return 409, _error_body("job-failed", error=record.error), _JSON
        return 409, _error_body("not-finished", state=record.state), _JSON

    def _get_progress(self, record: JobRecord) -> Tuple[int, str, str]:
        """``GET /jobs/<id>/progress``: merged counters of done units."""
        doc = {
            "schema": "zcover-serve-progress",
            "schema_version": 1,
            "job_id": record.job_id,
            "state": record.state,
            "units_done": record.units_done,
            "units_total": record.units_total,
            "counters": {k: record.counters[k] for k in sorted(record.counters)},
        }
        return 200, json.dumps(doc, sort_keys=True), _JSON

    def _get_metrics(self) -> Tuple[int, str, str]:
        """``GET /metrics``: the service's own obs snapshot document."""
        doc = snapshot_to_document(
            self.collector.snapshot(), meta={"kind": "serve"}
        )
        return 200, json.dumps(doc, sort_keys=True), _JSON


def serve_forever(
    host: str = "127.0.0.1",
    port: int = 8377,
    workers: int = 1,
    checkpoint_path: Optional[str] = None,
) -> None:
    """Run a service until SIGTERM/SIGINT, draining gracefully.

    This is the ``zcover serve`` entry point.  The bound address is
    printed once the socket is listening, so scripts (the CI smoke job)
    can wait for readiness on stdout.
    """
    import signal

    async def _main() -> None:
        service = ZCoverService(
            host=host,
            port=port,
            workers=workers,
            checkpoint_path=checkpoint_path,
        )
        await service.start()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, service.request_shutdown)
            except (NotImplementedError, RuntimeError):
                pass  # platform without loop signal support
        print(f"zcover serve listening on {service.host}:{service.port}", flush=True)
        await service.wait_finished()

    asyncio.run(_main())


class ServiceThread:
    """Host a service on a background thread (the test harness's handle).

    ``start()`` returns once the socket is bound (``port`` is then the
    real ephemeral port).  ``stop(drain=True)`` is the graceful path;
    ``stop(drain=False)`` aborts the runner mid-unit — the closest
    in-process equivalent of ``kill -9`` that still lets the test reuse
    the checkpoint file for a resume.
    """

    def __init__(self, **kwargs):
        self.service = ZCoverService(**kwargs)
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None

    def start(self) -> "ServiceThread":
        """Boot the service; blocks until the socket is listening."""
        ready = threading.Event()

        def _main() -> None:
            loop = asyncio.new_event_loop()
            self._loop = loop
            asyncio.set_event_loop(loop)
            try:
                loop.run_until_complete(self.service.start())
                ready.set()
                loop.run_until_complete(self.service.wait_finished())
            finally:
                ready.set()  # unblock start() even on a boot failure
                loop.close()

        self._thread = threading.Thread(target=_main, daemon=True)
        self._thread.start()
        ready.wait(timeout=30)
        return self

    @property
    def port(self) -> int:
        """The bound (possibly ephemeral) port."""
        return self.service.port

    def stop(self, drain: bool = True, timeout: float = 60.0) -> None:
        """Stop the service: graceful drain, or an abrupt simulated kill."""
        if self._loop is None or self._thread is None:
            return
        target = self.service.request_shutdown if drain else self.service.abort
        try:
            self._loop.call_soon_threadsafe(target)
        except RuntimeError:
            pass  # loop already closed
        self._thread.join(timeout=timeout)
