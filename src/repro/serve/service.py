"""The asyncio job service: HTTP/JSON front, worker-pool back.

Pure stdlib: a hand-rolled HTTP/1.1 exchange over
``asyncio.start_server`` (one request per connection, ``Connection:
close``) — no web framework, matching the repo's no-new-dependencies
rule.  The interesting machinery is behind the socket:

* a single **runner task** drains the :class:`~repro.serve.jobs.JobQueue`
  in ticket order, one job at a time, so execution order is a pure
  function of arrival order;
* each job's units run through the same attempt policy as the batch
  executor (:func:`~repro.core.parallel.unit_attempts`) on a persistent
  :class:`~repro.core.parallel.WorkerPool`, settled **in canonical index
  order**, so the merged document is byte-identical to an in-process
  run;
* every completed unit is appended to the write-ahead checkpoint
  (:mod:`repro.serve.checkpoint`) *before* it is observable as progress,
  so a SIGKILL can lose at most in-flight work, never completed work;
* SIGTERM/SIGINT trigger a graceful drain: queued-but-unstarted units
  are cancelled, in-flight units finish and are checkpointed, the
  interrupted job collapses back to ``queued``, and the next service
  pointed at the same checkpoint resumes mid-trial-set with
  byte-identical output.

Routes::

    POST /jobs                submit a JobSpec (wire v6); idempotent
    GET  /jobs                all job statuses, in ticket order
    GET  /jobs/<id>           one job's status
    GET  /jobs/<id>/result    the canonical result document (bytes)
    GET  /jobs/<id>/progress  merged obs counters of completed units
    GET  /metrics             the service's own obs snapshot
    GET  /healthz             liveness probe

:class:`ServiceThread` hosts the whole service on a background thread
with an ephemeral port — the black-box test harness talks to it over
real sockets, and its ``stop(drain=False)`` simulates a hard kill.
"""

from __future__ import annotations

import asyncio
import functools
import json
import threading
from typing import Optional, Tuple

from ..core.parallel import UnitOutcome, WorkerPool, unit_attempts
from ..core.resultio import (
    WireError,
    WireVersionError,
    dumps_wire,
    jobspec_from_wire,
    jobstatus_to_wire,
)
from ..obs.export import snapshot_to_document
from ..obs.metrics import MetricsCollector
from ..radio.clock import wall_monotonic
from .checkpoint import (
    CheckpointWriter,
    done_record,
    job_record,
    load_checkpoint,
    replay_checkpoint,
    unit_record,
)
from .jobs import JobQueue, JobRecord
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

_JSON = "application/json"


def _error_body(kind: str, **fields) -> str:
    """A structured error document: ``{"error": {"kind": ..., ...}}``."""
    payload = {"kind": kind}
    for key in sorted(fields):
        payload[key] = fields[key]
    return json.dumps({"error": payload}, sort_keys=True)


class ZCoverService:
    """One service instance: queue, pool, checkpoint, HTTP front."""

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        workers: int = 1,
        checkpoint_path: Optional[str] = None,
        retries: int = 1,
    ):
        self.host = host
        self.port = port  # rewritten with the bound port after start()
        self.workers = workers
        self.retries = retries
        self.checkpoint_path = checkpoint_path
        self.queue = JobQueue()
        self.collector = MetricsCollector()
        self.pool: Optional[WorkerPool] = None
        self._writer: Optional[CheckpointWriter] = None
        self._server: Optional[asyncio.AbstractServer] = None
        self._runner_task: Optional[asyncio.Task] = None
        self._wake: Optional[asyncio.Event] = None
        self._shutdown: Optional[asyncio.Event] = None
        self._draining = False
        self._aborted = False

    # -- lifecycle -------------------------------------------------------------

    async def start(self) -> None:
        """Bind the socket, restore the checkpoint, start the runner."""
        self._wake = asyncio.Event()
        self._shutdown = asyncio.Event()
        self.pool = WorkerPool(self.workers)
        self._restore_checkpoint()
        if self.checkpoint_path is not None:
            self._writer = CheckpointWriter(self.checkpoint_path)
        self._server = await asyncio.start_server(
            self._handle_client, host=self.host, port=self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._runner_task = asyncio.get_running_loop().create_task(self._runner())

    async def wait_finished(self) -> None:
        """Block until shutdown is requested, then tear everything down."""
        assert self._shutdown is not None
        await self._shutdown.wait()
        if self._runner_task is not None:
            try:
                await self._runner_task
            except asyncio.CancelledError:
                pass
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        if self.pool is not None:
            self.pool.drain(wait=not self._aborted)
        if self._writer is not None:
            self._writer.close()

    def request_shutdown(self) -> None:
        """Graceful drain: finish in-flight units, checkpoint, exit."""
        self._draining = True
        if self._wake is not None:
            self._wake.set()
        if self._shutdown is not None:
            self._shutdown.set()

    def abort(self) -> None:
        """Simulated kill: cancel the runner mid-unit, no drain.

        The checkpoint is still intact — appends are fsynced before
        progress is visible — which is exactly what the kill-and-resume
        test exercises.
        """
        self._aborted = True
        self._draining = True
        if self._runner_task is not None:
            self._runner_task.cancel()
        if self._shutdown is not None:
            self._shutdown.set()

    # -- checkpoint restore ----------------------------------------------------

    def _restore_checkpoint(self) -> None:
        """Replay the checkpoint file into queue state (if configured)."""
        if self.checkpoint_path is None:
            return
        for entry in replay_checkpoint(load_checkpoint(self.checkpoint_path)):
            record = JobRecord(entry.spec, entry.job_id, entry.sequence)
            record.preloaded = dict(entry.units)
            record.units_total = len(spec_units(entry.spec))
            if entry.final_state in (JOB_DONE, JOB_FAILED):
                self._restore_terminal(record, entry.final_state, entry.error)
            else:
                self.collector.inc("serve.jobs.resumed")
            self.queue.restore(record)

    def _restore_terminal(self, record: JobRecord, state: str, error: str) -> None:
        """Rebuild a finished job's result from its checkpointed units.

        A ``done`` job has every unit in the log, so the document can be
        rebuilt byte-identically; if any unit is missing (possible only
        after external truncation) the job is demoted back to ``queued``
        instead of serving a wrong result.
        """
        if state == JOB_FAILED:
            record.state = state
            record.error = error
            return
        outcomes = self._preloaded_outcomes(record)
        if any(outcome.result is None for outcome in outcomes):
            return  # stays queued; the runner re-runs the missing shards
        record.result_text = dumps_result_document(
            document_from_outcomes(record.spec, outcomes)
        )
        record.units_done = len(outcomes)
        record.state = state

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
        """Drain the queue in ticket order, one job at a time."""
        assert self._wake is not None
        while not self._draining:
            record = self.queue.next_queued()
            if record is None:
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.1)
                except asyncio.TimeoutError:
                    continue
                self._wake.clear()
                continue
            record.advance(JOB_RUNNING)
            self.collector.inc("serve.jobs.started")
            started = wall_monotonic()
            try:
                await self._execute_job(record)
            except asyncio.CancelledError:
                raise
            except Exception as exc:
                self._finish(record, JOB_FAILED, f"{type(exc).__name__}: {exc}")
            self.collector.record_span(
                f"serve.job.{record.spec.kind}",
                int((wall_monotonic() - started) * 1e6),
            )

    async def _execute_job(self, record: JobRecord) -> None:
        """Run one job through the shared attempt policy, checkpointing
        each unit as it completes; a drain re-queues the job."""
        outcomes = self._preloaded_outcomes(record)
        record.units_total = len(outcomes)
        record.units_done = 0
        record.counters = {}
        for outcome in outcomes:
            if outcome.result is not None:
                self._count_done(record, outcome)
        assert self.pool is not None
        respawns = self.pool.respawns
        core = unit_attempts(
            outcomes,
            self.pool,
            self.retries,
            report=functools.partial(self._unit_settled, record),
            draining=lambda: self._draining,
            rehydrate=rehydrate_unit_result,
        )
        try:
            future = next(core)
            while True:
                await asyncio.wait([asyncio.wrap_future(future)])
                error = future.exception()
                future = core.send((None, error) if error is not None else (future.result(), None))
        except StopIteration:
            pass
        if self.pool.respawns > respawns:
            self.collector.inc("serve.pool.respawns", self.pool.respawns - respawns)
        if any(o.result is None and o.failure is None for o in outcomes):
            # Drained mid-job: completed units are checkpointed; the job
            # re-queues so the next service life resumes where we stopped.
            record.advance(JOB_QUEUED)
            return
        self._finish_with_document(record, outcomes)

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
                record.counters[key] = record.counters.get(key, 0) + value

    def _finish_with_document(self, record: JobRecord, outcomes: list) -> None:
        """Build the canonical result document and finish the job."""
        try:
            record.result_text = dumps_result_document(
                document_from_outcomes(record.spec, outcomes)
            )
        except Exception as exc:
            self._finish(record, JOB_FAILED, f"{type(exc).__name__}: {exc}")
            return
        self._finish(record, JOB_DONE, "")

    def _finish(self, record: JobRecord, state: str, error: str) -> None:
        """Advance to a terminal state and write the ``done`` record."""
        record.error = error
        record.advance(state)
        if self._writer is not None:
            self._writer.append(done_record(record.job_id, state, error))
        self.collector.inc(
            "serve.jobs.completed" if state == JOB_DONE else "serve.jobs.failed"
        )

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
        record, created = self.queue.submit(spec)
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
        """``GET /jobs/<id>/result``: the canonical document, or 409."""
        if record.state == JOB_DONE and record.result_text is not None:
            return 200, record.result_text, _JSON
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
    retries: int = 1,
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
            retries=retries,
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
