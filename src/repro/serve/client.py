"""Stdlib HTTP client for the job service (the ``zcover submit`` back end).

Thin by design: one :class:`http.client.HTTPConnection` per request
(the service answers with ``Connection: close`` anyway), wire-v6 specs
out, wire-v6 statuses back, raw bytes for result documents — the client
never re-serialises a result, because re-encoding is exactly how a
byte-identity contract gets silently broken.

All waiting is wall-clock polling via the sanctioned clock owner
(:func:`repro.radio.clock.wall_sleep` / ``wall_monotonic``): the service
has no push channel, and a poll loop keeps the client dependency-free.
"""

from __future__ import annotations

import http.client
import json
from typing import Optional, Tuple

from ..core.resultio import jobspec_to_wire, jobstatus_from_wire
from ..errors import CampaignError
from ..radio.clock import wall_monotonic, wall_sleep
from ..wire import dumps_wire
from .protocol import JOB_DONE, JOB_FAILED, JobSpec, JobStatus


class ServeClientError(CampaignError):
    """A request the service rejected (or could not be reached).

    ``status`` is the HTTP status code (0 when the connection itself
    failed) and ``payload`` the parsed error document, when there was one.
    """

    def __init__(self, message: str, status: int = 0, payload: Optional[dict] = None):
        super().__init__(message)
        self.status = status
        self.payload = payload or {}


class ServeClient:
    """Talk to one service instance at ``host:port``."""

    def __init__(self, host: str = "127.0.0.1", port: int = 8377, timeout: float = 60.0):
        self.host = host
        self.port = port
        self.timeout = timeout

    def _request(
        self, method: str, path: str, body: Optional[bytes] = None
    ) -> Tuple[int, bytes]:
        """One request/response exchange; returns ``(status, body)``."""
        connection = http.client.HTTPConnection(
            self.host, self.port, timeout=self.timeout
        )
        try:
            headers = {"Content-Type": "application/json"} if body else {}
            connection.request(method, path, body=body, headers=headers)
            response = connection.getresponse()
            return response.status, response.read()
        except (ConnectionError, OSError) as exc:
            raise ServeClientError(
                f"{method} {path}: cannot reach {self.host}:{self.port}: {exc}"
            ) from exc
        finally:
            connection.close()

    def _error(self, method: str, path: str, status: int, body: bytes) -> ServeClientError:
        """Build a structured error from a non-2xx response."""
        payload: dict = {}
        try:
            payload = json.loads(body.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError):
            pass
        detail = payload.get("error", payload)
        return ServeClientError(
            f"{method} {path}: HTTP {status}: {detail}", status=status, payload=payload
        )

    def submit(self, spec: JobSpec) -> JobStatus:
        """POST a spec; returns the (possibly pre-existing) job's status."""
        body = dumps_wire(jobspec_to_wire(spec)).encode("utf-8")
        status, payload = self._request("POST", "/jobs", body)
        if status not in (200, 201):
            raise self._error("POST", "/jobs", status, payload)
        return jobstatus_from_wire(json.loads(payload.decode("utf-8")))

    def status(self, job_id: str) -> JobStatus:
        """GET one job's current status."""
        path = f"/jobs/{job_id}"
        status, payload = self._request("GET", path)
        if status != 200:
            raise self._error("GET", path, status, payload)
        return jobstatus_from_wire(json.loads(payload.decode("utf-8")))

    def result_bytes(self, job_id: str) -> bytes:
        """GET the canonical result document, verbatim bytes."""
        path = f"/jobs/{job_id}/result"
        status, payload = self._request("GET", path)
        if status != 200:
            raise self._error("GET", path, status, payload)
        return payload

    def progress(self, job_id: str) -> dict:
        """GET the merged obs counters of a job's completed units."""
        path = f"/jobs/{job_id}/progress"
        status, payload = self._request("GET", path)
        if status != 200:
            raise self._error("GET", path, status, payload)
        return json.loads(payload.decode("utf-8"))

    def healthz(self) -> dict:
        """GET the liveness document (also the readiness probe)."""
        status, payload = self._request("GET", "/healthz")
        if status != 200:
            raise self._error("GET", "/healthz", status, payload)
        return json.loads(payload.decode("utf-8"))

    def wait(
        self, job_id: str, timeout: float = 600.0, poll: float = 0.05
    ) -> JobStatus:
        """Poll until the job is terminal; returns its final status.

        Raises :class:`ServeClientError` if the deadline passes first —
        the job keeps running server-side, so a later ``wait`` can still
        succeed.
        """
        deadline = wall_monotonic() + timeout
        while True:
            current = self.status(job_id)
            if current.state in (JOB_DONE, JOB_FAILED):
                return current
            if wall_monotonic() >= deadline:
                raise ServeClientError(
                    f"job {job_id} not finished after {timeout}s "
                    f"(state {current.state}, "
                    f"{current.units_done}/{current.units_total} units)"
                )
            wall_sleep(poll)
