"""Black-box byte-identity harness for the job service (`zcover serve`).

The service under test is a real one: :class:`ServiceThread` boots the
asyncio server on an ephemeral port of a background thread and every
assertion below talks to it over actual HTTP sockets via the stdlib
client — no internal shortcuts.  The oracle is
:func:`repro.serve.results.direct_document`: the same spec run
in-process, serially, through the same units and fold the CLI commands
use.  The contract, for every job kind:

    bytes(GET /jobs/<id>/result) == bytes(oracle document)

including after the service is killed mid-trial-set (``stop(drain=
False)`` cancels the runner between unit harvests — the in-process
equivalent of ``kill -9`` that still shares the checkpoint file) and a
fresh service resumes from the write-ahead checkpoint.

The pool runs with ``workers=2`` throughout, so these tests also pin
served-parallel against oracle-serial — the full PR 1–8 determinism
stack exercised through the service's front door.
"""

import functools
import json
import os
import shutil
import threading

import pytest

from repro.core.session import FLOWS
from repro.radio.clock import wall_monotonic, wall_sleep
from repro.serve.checkpoint import RESULTS_SUFFIX
from repro.serve.client import ServeClient, ServeClientError
from repro.serve.protocol import JOB_DONE, JobSpec
from repro.serve.results import direct_document, dumps_result_document
from repro.serve.service import ServiceThread
from repro.wire import WIRE_VERSION

SPEC_TRIALS = JobSpec(
    kind="trials", device="D1", mode="full", seed=0, trials=2, hours=0.05
)
SPEC_SESSIONS = JobSpec(
    kind="sessions", device="D1", seed=3, trials=6, flows=("inclusion", "s0")
)
SPEC_CHAOS = JobSpec(
    kind="chaos",
    device="D1",
    mode="full",
    seed=0,
    trials=2,
    hours=0.05,
    fault_plan="canonical",
)
SPEC_RESUME = JobSpec(
    kind="trials", device="D2", mode="full", seed=0, trials=4, hours=0.05
)
SPEC_ABLATION = JobSpec(kind="ablation", device="D1", seed=0, hours=0.05, scheduler="coverage")
SPEC_COMPARE = JobSpec(kind="compare", device="D1", devices=("D1", "D2"), seed=0, hours=0.05)
SPEC_AHEAD, SPEC_BEHIND = (
    JobSpec(kind="sessions", device=device, seed=seed, trials=4000, flows=FLOWS)
    for device, seed in (("D1", 11), ("D2", 12))
)

WAIT_S = 300.0


@functools.lru_cache(maxsize=None)
def oracle_bytes(spec):
    """The serial in-process oracle document for *spec*, as bytes.

    Cached per spec (specs are frozen dataclasses): several tests compare
    against the same oracle and the campaign only needs to run once.
    """
    return dumps_result_document(direct_document(spec)).encode("utf-8")


@pytest.fixture(scope="module")
def service():
    handle = ServiceThread(workers=2, port=0).start()
    yield handle
    handle.stop(drain=True)


@pytest.fixture(scope="module")
def client(service):
    return ServeClient(port=service.port)


class TestByteIdentity:
    """Served result documents equal the serial oracle, byte for byte."""

    @pytest.mark.parametrize(
        "spec",
        [SPEC_TRIALS, SPEC_SESSIONS, SPEC_CHAOS, SPEC_ABLATION, SPEC_COMPARE],
        ids=["trials", "sessions", "chaos", "ablation", "compare"],
    )
    def test_served_bytes_equal_oracle(self, client, spec):
        status = client.submit(spec)
        final = client.wait(status.job_id, timeout=WAIT_S)
        assert final.state == JOB_DONE
        assert final.units_done == final.units_total > 0
        assert client.result_bytes(status.job_id) == oracle_bytes(spec)

    def test_result_is_canonical_json(self, client):
        status = client.submit(SPEC_TRIALS)
        client.wait(status.job_id, timeout=WAIT_S)
        payload = client.result_bytes(status.job_id)
        doc = json.loads(payload.decode("utf-8"))
        assert doc["schema"] == "zcover-serve-result"
        assert doc["job_id"] == status.job_id
        assert doc["spec"]["wire_version"] == WIRE_VERSION
        # canonical form: sorted keys, indent 2, trailing newline
        recoded = json.dumps(doc, sort_keys=True, indent=2) + "\n"
        assert payload == recoded.encode("utf-8")


class TestProtocolSurface:
    """Idempotence, structured rejection, progress, and 404s over HTTP."""

    def test_duplicate_submission_is_idempotent(self, client):
        first = client.submit(SPEC_TRIALS)
        second = client.submit(SPEC_TRIALS)
        assert second.job_id == first.job_id
        assert second.sequence == first.sequence

    def test_invalid_spec_rejected_with_field(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.submit(JobSpec(kind="chaos", device="D1"))  # no fault plan
        assert excinfo.value.status == 400
        assert excinfo.value.payload["error"]["kind"] == "spec"
        assert excinfo.value.payload["error"]["field"] == "fault_plan"

    def test_future_wire_version_rejected(self, service):
        import http.client

        from repro.core.resultio import jobspec_to_wire
        from repro.wire import dumps_wire

        wire = jobspec_to_wire(SPEC_TRIALS)
        wire["wire_version"] = WIRE_VERSION + 1
        connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
        try:
            connection.request(
                "POST",
                "/jobs",
                body=dumps_wire(wire).encode("utf-8"),
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["kind"] == "wire-version"
        assert payload["error"]["found"] == WIRE_VERSION + 1
        assert payload["error"]["expected"] == WIRE_VERSION

    def test_non_object_body_rejected_as_layout(self, service):
        import http.client

        connection = http.client.HTTPConnection("127.0.0.1", service.port, timeout=30)
        try:
            connection.request(
                "POST", "/jobs", body=b"[]", headers={"Content-Type": "application/json"}
            )
            response = connection.getresponse()
            payload = json.loads(response.read().decode("utf-8"))
        finally:
            connection.close()
        assert response.status == 400
        assert payload["error"]["kind"] == "layout"

    def test_unknown_job_and_path_are_404(self, client):
        with pytest.raises(ServeClientError) as excinfo:
            client.status("job-ffffffff")
        assert excinfo.value.status == 404
        status, _body = client._request("GET", "/nothing/here")
        assert status == 404

    def test_progress_streams_merged_counters(self, client):
        status = client.submit(SPEC_TRIALS)
        client.wait(status.job_id, timeout=WAIT_S)
        progress = client.progress(status.job_id)
        assert progress["schema"] == "zcover-serve-progress"
        assert progress["units_done"] == progress["units_total"]
        assert progress["counters"]  # campaign counters merged per unit
        assert any(key.startswith("fuzzer.") for key in progress["counters"])

    def test_service_metrics_count_jobs(self, client):
        status, body = client._request("GET", "/metrics")
        assert status == 200
        doc = json.loads(body.decode("utf-8"))
        assert doc["counters"]["serve.jobs.accepted"] >= 1
        assert doc["counters"]["serve.jobs.completed"] >= 1

    def test_healthz(self, client):
        health = client.healthz()
        assert health["ok"] is True


def _raw_exchange(port, request, close_write=False, timeout=5.0):
    """Send raw *request* bytes on a fresh socket; return (status, payload).

    *close_write* half-closes the socket after sending, as a client that
    hangs up mid-request does.  *timeout* bounds every socket read, so a
    server that waits for bytes that never come fails the test quickly.
    """
    import socket

    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as sock:
        sock.sendall(request)
        if close_write:
            sock.shutdown(socket.SHUT_WR)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    head, _, body = b"".join(chunks).partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, json.loads(body.decode("utf-8"))


class TestRequestBounds:
    """The HTTP read is bounded in size, header count and time."""

    def test_oversized_body_rejected_without_reading_it(self, service):
        from repro.serve.service import MAX_BODY_BYTES, REQUEST_READ_TIMEOUT_S

        started = wall_monotonic()
        status, payload = _raw_exchange(
            service.port,
            b"POST /jobs HTTP/1.1\r\nContent-Length: %d\r\n\r\n" % (1 << 40),
        )
        assert status == 413
        assert payload["error"] == {"kind": "body-size", "limit": MAX_BODY_BYTES}
        assert wall_monotonic() - started < REQUEST_READ_TIMEOUT_S

    def test_too_many_headers_rejected(self, service):
        from repro.serve.service import MAX_HEADER_LINES

        headers = b"".join(b"X-Filler-%d: 1\r\n" % i for i in range(MAX_HEADER_LINES + 1))
        status, payload = _raw_exchange(
            service.port, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        assert status == 431
        assert payload["error"] == {"kind": "headers", "limit": MAX_HEADER_LINES}

    @pytest.mark.parametrize(
        "request_bytes, status, kind",
        [
            pytest.param(
                b"GET /" + b"a" * 70000 + b" HTTP/1.1\r\n\r\n", 400, "request-line",
                id="request-line",
            ),
            pytest.param(
                b"GET /healthz HTTP/1.1\r\nX-Long: " + b"a" * 70000 + b"\r\n\r\n", 431,
                "headers", id="header",
            ),
        ],
    )
    def test_overlong_line_rejected(self, service, request_bytes, status, kind):
        got, payload = _raw_exchange(service.port, request_bytes, close_write=True)
        assert got == status
        assert payload["error"]["kind"] == kind

    def test_headers_at_the_limit_accepted(self, service):
        from repro.serve.service import MAX_HEADER_LINES

        headers = b"".join(b"X-Filler-%d: 1\r\n" % i for i in range(MAX_HEADER_LINES))
        status, payload = _raw_exchange(
            service.port, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        assert status == 200
        assert payload["ok"] is True

    def test_stalled_request_times_out(self, service, monkeypatch):
        import repro.serve.service as service_module

        monkeypatch.setattr(service_module, "REQUEST_READ_TIMEOUT_S", 0.3)
        status, payload = _raw_exchange(service.port, b"POST /jobs HTTP/1.1\r\n")
        assert status == 408
        assert payload["error"]["kind"] == "timeout"

    def test_truncated_body_is_a_400(self, service):
        status, payload = _raw_exchange(
            service.port,
            b"POST /jobs HTTP/1.1\r\nContent-Length: 100\r\n\r\n{\"kind\":",
            close_write=True,
        )
        assert status == 400
        assert payload["error"] == {
            "kind": "truncated-body",
            "expected": 100,
            "received": 8,
        }


class TestKillAndResume:
    """Kill the service mid-trial-set; a resumed one is byte-identical."""

    def test_abrupt_kill_then_checkpoint_resume(self, tmp_path):
        checkpoint = os.fspath(tmp_path / "serve.ckpt")
        # One worker in the first life, so units settle one at a time; the
        # resumed lives run two workers.
        first = ServiceThread(
            workers=1, port=0, checkpoint_path=checkpoint
        ).start()
        # The kill lands between unit 1 and unit 2 by construction, not
        # by timing: once the first unit is checkpointed, the runner is
        # aborted on the service's own loop, before it can settle another.
        settle = first.service._unit_settled
        killed = threading.Event()
        progress = []

        def settle_then_kill(record, index, outcome, wire):
            settle(record, index, outcome, wire)
            if not killed.is_set():
                progress.append((record.state, record.units_done, record.units_total))
                first.service.abort()  # what stop(drain=False) schedules
                killed.set()

        first.service._unit_settled = settle_then_kill
        client = ServeClient(port=first.port)
        status = client.submit(SPEC_RESUME)
        assert killed.wait(WAIT_S)
        first.stop(drain=False)  # already killed: this joins the service thread
        ((state, units_done, units_total),) = progress
        assert state != JOB_DONE, "job finished before the kill"
        assert 0 < units_done < units_total

        # The write-ahead log holds the completed prefix (and only it).
        lines = [
            json.loads(line)
            for line in open(checkpoint, encoding="utf-8")
            if line.strip()
        ]
        kinds = [entry["record"]["kind"] for entry in lines]
        assert kinds[0] == "job"
        assert kinds.count("unit") >= 1
        assert "done" not in kinds

        second = ServiceThread(
            workers=2, port=0, checkpoint_path=checkpoint
        ).start()
        try:
            resumed = ServeClient(port=second.port)
            final = resumed.wait(status.job_id, timeout=WAIT_S)
            assert final.state == JOB_DONE
            assert resumed.result_bytes(status.job_id) == oracle_bytes(SPEC_RESUME)
        finally:
            second.stop(drain=True)

        # Third life: the finished job is restored terminal, result intact,
        # without re-running anything.
        third = ServiceThread(
            workers=2, port=0, checkpoint_path=checkpoint
        ).start()
        try:
            restored = ServeClient(port=third.port)
            assert restored.status(status.job_id).state == JOB_DONE
            assert restored.result_bytes(status.job_id) == oracle_bytes(SPEC_RESUME)
        finally:
            third.stop(drain=True)

    def test_graceful_drain_requeues_unfinished_job(self, tmp_path):
        checkpoint = os.fspath(tmp_path / "drain.ckpt")
        first = ServiceThread(
            workers=2, port=0, checkpoint_path=checkpoint
        ).start()
        client = ServeClient(port=first.port)
        status = client.submit(SPEC_RESUME)
        deadline = wall_monotonic() + WAIT_S
        while client.status(status.job_id).units_done < 1:
            assert wall_monotonic() < deadline
            wall_sleep(0.02)
        first.stop(drain=True)  # SIGTERM path: in-flight units finish

        second = ServiceThread(
            workers=2, port=0, checkpoint_path=checkpoint
        ).start()
        try:
            resumed = ServeClient(port=second.port)
            final = resumed.wait(status.job_id, timeout=WAIT_S)
            assert final.state == JOB_DONE
            assert resumed.result_bytes(status.job_id) == oracle_bytes(SPEC_RESUME)
        finally:
            second.stop(drain=True)

    @pytest.mark.parametrize(
        "spec", [SPEC_ABLATION, SPEC_COMPARE], ids=["ablation", "compare"]
    )
    def test_experiment_job_survives_kill_and_restore(self, tmp_path, spec):
        """An ablation or compare job killed after its first unit resumes
        from the write-ahead log, and a third life restores the finished
        document from the log alone — the oracle bytes every time."""
        checkpoint = os.fspath(tmp_path / "experiment.ckpt")
        first = ServiceThread(workers=1, port=0, checkpoint_path=checkpoint).start()
        settle = first.service._unit_settled
        killed = threading.Event()
        progress = []

        def settle_then_kill(record, index, outcome, wire):
            settle(record, index, outcome, wire)
            if not killed.is_set():
                progress.append((record.units_done, record.units_total))
                first.service.abort()
                killed.set()

        first.service._unit_settled = settle_then_kill
        job_id = ServeClient(port=first.port).submit(spec).job_id
        assert killed.wait(WAIT_S)
        first.stop(drain=False)
        ((units_done, units_total),) = progress
        assert 0 < units_done < units_total

        for life in ("resumed", "restored"):
            handle = ServiceThread(workers=2, port=0, checkpoint_path=checkpoint).start()
            try:
                client = ServeClient(port=handle.port)
                final = client.wait(job_id, timeout=WAIT_S)
                assert final.state == JOB_DONE, life
                assert client.result_bytes(job_id) == oracle_bytes(spec), life
            finally:
                handle.stop(drain=True)


class TestLookaheadStop:
    """Stop the service while a second job waits behind the first."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize("drain", [True, False], ids=["drain", "kill"])
    def test_stop_with_a_lookahead_job_then_resume(self, tmp_path, hold_runner, drain, workers):
        """Both jobs resume to the oracle bytes, each finishes once, and the
        second life runs exactly the units the log lacks."""
        checkpoint = os.fspath(tmp_path / "lookahead.ckpt")
        first = ServiceThread(workers=workers, port=0, checkpoint_path=checkpoint).start()
        gate = hold_runner(first)
        settle = first.service._unit_settled
        stopped = threading.Event()

        def settle_then_stop(record, index, outcome, wire):
            settle(record, index, outcome, wire)
            if not stopped.is_set():
                stopped.set()  # on the service's loop: the first unit just settled
                (first.service.request_shutdown if drain else first.service.abort)()

        first.service._unit_settled = settle_then_stop
        client = ServeClient(port=first.port)
        job_ids = [client.submit(spec).job_id for spec in (SPEC_AHEAD, SPEC_BEHIND)]
        gate.set()
        assert stopped.wait(WAIT_S)
        first.stop(drain=drain)
        counters = first.service.collector.snapshot().counters
        assert counters["serve.jobs.queued_ahead"] == 1
        assert "serve.jobs.restarted" not in counters

        def records(kind):
            lines = [json.loads(line) for line in open(checkpoint, encoding="utf-8")]
            return [entry["record"] for entry in lines if entry["record"]["kind"] == kind]

        logged = [unit["job_id"] for unit in records("unit")]
        assert job_ids[0] in logged
        if drain:  # the job behind had queued units, and they were cancelled
            assert logged.count(job_ids[1]) < len(FLOWS)

        second = ServiceThread(workers=workers, port=0, checkpoint_path=checkpoint).start()
        try:
            resumed = ServeClient(port=second.port)
            for job_id, spec in zip(job_ids, (SPEC_AHEAD, SPEC_BEHIND)):
                assert resumed.wait(job_id, timeout=WAIT_S).state == JOB_DONE
                assert resumed.result_bytes(job_id) == oracle_bytes(spec)
            ran = second.service.collector.snapshot().counters.get("serve.units.completed", 0)
        finally:
            second.stop(drain=True)
        assert ran == 2 * len(FLOWS) - len(logged)
        assert sorted(done["job_id"] for done in records("done")) == sorted(job_ids)


class TestCliDocumentPath:
    """``zcover ablation``/``compare`` print parts of the oracle document."""

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "argv, spec",
        [
            (["ablation", "--hours", "0.05", "--scheduler", "coverage"], SPEC_ABLATION),
            (["compare", "--devices", "D2,D1", "--hours", "0.05"], SPEC_COMPARE),
        ],
        ids=["ablation", "compare"],
    )
    def test_cli_output_is_the_document(self, tmp_path, capsys, argv, spec, workers):
        from repro.cli import main
        from repro.obs.export import canonical_dumps

        metrics = os.fspath(tmp_path / "metrics.json")
        assert main(argv + ["--workers", workers, "--metrics-out", metrics]) == 0
        doc = json.loads(oracle_bytes(spec))
        out = capsys.readouterr().out
        assert out == f"{doc['render']}\nmetrics written to {metrics}\n"
        with open(metrics, encoding="utf-8") as handle:
            assert handle.read() == canonical_dumps(doc["metrics"])


FIVE_KINDS = (SPEC_TRIALS, SPEC_SESSIONS, SPEC_CHAOS, SPEC_ABLATION, SPEC_COMPARE)


@pytest.fixture(scope="module")
def finished_life(tmp_path_factory):
    """A checkpoint and result store left by one life that ran a job of
    each kind: every result file written, every unit line still logged."""
    root = tmp_path_factory.mktemp("finished")
    checkpoint = os.fspath(root / "serve.ckpt")
    handle = ServiceThread(workers=2, port=0, checkpoint_path=checkpoint).start()
    try:
        client = ServeClient(port=handle.port)
        job_ids = [client.submit(spec).job_id for spec in FIVE_KINDS]
        for job_id in job_ids:
            assert client.wait(job_id, timeout=WAIT_S).state == JOB_DONE
    finally:
        handle.stop(drain=True)
    return checkpoint, job_ids


def copy_life(finished_life, tmp_path):
    """A private copy of *finished_life*'s checkpoint and result store."""
    source, job_ids = finished_life
    checkpoint = os.fspath(tmp_path / "serve.ckpt")
    shutil.copyfile(source, checkpoint)
    shutil.copytree(source + RESULTS_SUFFIX, checkpoint + RESULTS_SUFFIX)
    return checkpoint, job_ids


def record_kinds(checkpoint):
    with open(checkpoint, encoding="utf-8") as handle:
        return [json.loads(line)["record"]["kind"] for line in handle]


@pytest.fixture
def documents_built(monkeypatch):
    """Count the documents the service folds from unit outcomes."""
    import repro.serve.service as service_module

    calls = []
    build = service_module.document_from_outcomes

    def counting(spec, outcomes, *args):
        calls.append(spec)
        return build(spec, outcomes, *args)

    monkeypatch.setattr(service_module, "document_from_outcomes", counting)
    return calls


def restart_and_check(checkpoint, job_ids):
    """Boot on *checkpoint*; every job must serve its oracle bytes.
    Returns the new life's counters."""
    handle = ServiceThread(workers=2, port=0, checkpoint_path=checkpoint).start()
    try:
        client = ServeClient(port=handle.port)
        for job_id, spec in zip(job_ids, FIVE_KINDS):
            assert client.wait(job_id, timeout=WAIT_S).state == JOB_DONE
            assert client.result_bytes(job_id) == oracle_bytes(spec)
        return handle.service.collector.snapshot().counters
    finally:
        handle.stop(drain=True)


class TestResultStore:
    """Finished documents live in files beside the log, not in the heap."""

    def test_restart_restores_valid_results_without_building_any(
        self, finished_life, tmp_path, documents_built
    ):
        checkpoint, job_ids = copy_life(finished_life, tmp_path)
        assert "unit" in record_kinds(checkpoint)
        counters = restart_and_check(checkpoint, job_ids)
        assert documents_built == []
        # Start-up compaction: finished jobs keep their job and done lines.
        assert record_kinds(checkpoint) == ["job"] * 5 + ["done"] * 5
        assert counters["serve.wal.compactions"] == 1
        assert counters["serve.wal.bytes"] == os.path.getsize(checkpoint)
        results = checkpoint + RESULTS_SUFFIX
        assert counters["serve.results.bytes"] == sum(
            os.path.getsize(os.path.join(results, name)) for name in os.listdir(results)
        )

    @pytest.mark.parametrize(
        "step",
        ["temp-written", "temp-torn", "before-rename", "before-directory-sync", "after-rename"],
    )
    def test_kill_at_each_compaction_step_restores_the_same_bytes(
        self, finished_life, tmp_path, monkeypatch, documents_built, step
    ):
        """Whatever step of a compaction a kill lands on, the next life
        serves every document from its file, building none."""
        from repro.serve import checkpoint as checkpoint_module
        from repro.serve.checkpoint import CheckpointWriter, load_prefix

        checkpoint, job_ids = copy_life(finished_life, tmp_path)

        class Killed(Exception):
            pass

        def kill(*args):
            raise Killed(step)

        writer = CheckpointWriter(checkpoint, load_prefix(checkpoint))
        with monkeypatch.context() as patch:
            if step in ("temp-written", "temp-torn"):
                patch.setattr(checkpoint_module.os, "fsync", kill)
            elif step == "before-rename":
                patch.setattr(checkpoint_module.os, "replace", kill)
            elif step == "before-directory-sync":
                patch.setattr(checkpoint_module, "sync_directory", kill)
            if step == "after-rename":
                assert writer.compact(lambda job_id: True)
            else:
                with pytest.raises(Killed):
                    writer.compact(lambda job_id: True)
        writer.close()
        temp = checkpoint + ".tmp"
        if step == "temp-torn":
            with open(temp, "r+b") as handle:
                handle.truncate(os.path.getsize(temp) // 2)
        if step in ("before-directory-sync", "after-rename"):
            assert "unit" not in record_kinds(checkpoint)
        else:
            assert "unit" in record_kinds(checkpoint)
            assert os.path.exists(temp)
        restart_and_check(checkpoint, job_ids)
        assert documents_built == []

    @pytest.mark.parametrize("damage", ["missing", "cut-short", "other-job"])
    def test_untrusted_result_is_rebuilt_from_logged_units(
        self, finished_life, tmp_path, documents_built, damage
    ):
        checkpoint, job_ids = copy_life(finished_life, tmp_path)
        results = checkpoint + RESULTS_SUFFIX
        path = os.path.join(results, job_ids[0] + ".json")
        if damage == "missing":
            os.remove(path)
        elif damage == "cut-short":
            with open(path, "r+b") as handle:
                handle.truncate(100)
        else:
            shutil.copyfile(os.path.join(results, job_ids[1] + ".json"), path)
        counters = restart_and_check(checkpoint, job_ids)
        assert documents_built == [FIVE_KINDS[0]]
        assert counters["serve.results.rebuilt"] == 1
        assert "serve.jobs.started" not in counters

    def test_lost_result_with_units_gone_runs_the_job_again(
        self, finished_life, tmp_path
    ):
        checkpoint, job_ids = copy_life(finished_life, tmp_path)
        restart_and_check(checkpoint, job_ids)  # compacts the units away
        os.remove(os.path.join(checkpoint + RESULTS_SUFFIX, job_ids[2] + ".json"))
        counters = restart_and_check(checkpoint, job_ids)
        assert counters["serve.jobs.started"] == 1
        assert "serve.results.rebuilt" not in counters

    def test_result_lost_while_serving_is_a_409_and_the_job_runs_again(
        self, tmp_path, monkeypatch
    ):
        from repro.serve import checkpoint as checkpoint_module

        monkeypatch.setattr(checkpoint_module, "RESULT_CACHE_JOBS", 0)  # every fetch reads the file
        checkpoint = os.fspath(tmp_path / "serve.ckpt")
        handle = ServiceThread(workers=2, port=0, checkpoint_path=checkpoint).start()
        try:
            client = ServeClient(port=handle.port)
            job_id = client.submit(SPEC_TRIALS).job_id
            assert client.wait(job_id, timeout=WAIT_S).state == JOB_DONE
            assert client.result_bytes(job_id) == oracle_bytes(SPEC_TRIALS)
            os.remove(os.path.join(checkpoint + RESULTS_SUFFIX, job_id + ".json"))
            with pytest.raises(ServeClientError) as excinfo:
                client.result_bytes(job_id)
            assert excinfo.value.status == 409
            assert excinfo.value.payload["error"] == {"kind": "result-lost", "job_id": job_id}
            assert client.wait(job_id, timeout=WAIT_S).state == JOB_DONE
            assert client.result_bytes(job_id) == oracle_bytes(SPEC_TRIALS)
            counters = handle.service.collector.snapshot().counters
            assert counters["serve.results.lost"] == 1
            assert counters["serve.jobs.completed"] == 2
        finally:
            handle.stop(drain=True)

    def test_store_without_a_checkpoint_is_removed_at_shutdown(self, client, service):
        directory = service.service.results.directory
        status = client.submit(SPEC_TRIALS)
        client.wait(status.job_id, timeout=WAIT_S)
        assert os.path.exists(os.path.join(directory, status.job_id + ".json"))
        handle = ServiceThread(workers=1, port=0).start()
        private = handle.service.results.directory
        assert os.path.isdir(private) and private != directory
        handle.stop(drain=True)
        assert not os.path.exists(private)


def _children(parent):
    """The pids whose parent is *parent*, read from ``/proc``."""
    children = []
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as handle:
                stat = handle.read()
        except OSError:
            continue  # not a process, or gone
        if int(stat.rpartition(")")[2].split()[1]) == parent:
            children.append(int(entry))
    return children


def _open_files(pid):
    """Where *pid*'s descriptors point, read from ``/proc``."""
    links = []
    for fd in os.listdir(f"/proc/{pid}/fd"):
        try:
            links.append(os.readlink(f"/proc/{pid}/fd/{fd}"))
        except OSError:
            pass  # closed meanwhile
    return links


def _alive(pid):
    """Whether *pid* still runs: a zombie nobody reaped has exited."""
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rpartition(")")[2].split()[0] != "Z"
    except OSError:
        return False


class TestListenerOwnership:
    def test_pool_workers_do_not_hold_the_listening_socket(self, service, client):
        """A forked worker closes the listener and the result store's
        lock, so a ``kill -9`` of the service alone frees the port and
        the checkpoint."""
        import multiprocessing

        if not os.path.isdir("/proc/self/fd"):
            pytest.skip("needs /proc")
        status = client.submit(SPEC_SESSIONS)
        client.wait(status.job_id, timeout=WAIT_S)  # the pool's workers exist
        ((listener,),) = [server.sockets for server in service.service._servers]
        inode = f"socket:[{os.fstat(listener.fileno()).st_ino}]"

        def sockets(pid):
            links = []
            try:
                fds = os.listdir(f"/proc/{pid}/fd")
            except OSError:
                return links  # exited meanwhile
            for fd in fds:
                try:
                    links.append(os.readlink(f"/proc/{pid}/fd/{fd}"))
                except OSError:
                    pass  # closed meanwhile
            return links

        lock = os.path.realpath(service.service.results.directory)
        assert inode in sockets("self") and lock in sockets("self")
        workers = [child.pid for child in multiprocessing.active_children()]
        assert workers
        for pid in workers:
            assert inode not in sockets(pid), pid
            assert lock not in sockets(pid), pid

    def test_a_killed_service_takes_its_workers_down(self, tmp_path):
        """A forked worker closes the checkpoint log, and exits once a
        ``kill -9`` has taken its service away."""
        import signal
        import subprocess
        import sys

        if not sys.platform.startswith("linux"):
            pytest.skip("reads /proc")
        checkpoint = os.fspath(tmp_path / "serve.ckpt")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0", "--workers", "1",
             "--checkpoint", checkpoint],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, env=env,
        )
        workers = []
        try:
            port = int(proc.stdout.readline().rsplit(":", 1)[1])
            client = ServeClient(port=port)
            job_id = client.submit(SPEC_TRIALS).job_id
            assert client.wait(job_id, timeout=WAIT_S).state == JOB_DONE
            workers = _children(proc.pid)
            assert workers
            for pid in workers:
                assert os.path.realpath(checkpoint) not in _open_files(pid), pid
            proc.kill()
            proc.wait(timeout=WAIT_S)
            deadline = wall_monotonic() + 5.0
            while any(_alive(pid) for pid in workers) and wall_monotonic() < deadline:
                wall_sleep(0.05)
            assert not [pid for pid in workers if _alive(pid)]
        finally:
            proc.kill()
            for pid in workers:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)

    @pytest.mark.parametrize("same_port", [True, False], ids=["same-port", "other-port"])
    def test_second_service_on_a_live_checkpoint_leaves_it_alone(self, tmp_path, same_port):
        """A second service on a live one's checkpoint fails before it
        reads it: on the same port the bind fails, on another the lock on
        the result store does.  Either way the live log is not compacted
        behind the live writer's back."""
        import asyncio

        from repro.errors import ReproError
        from repro.serve.checkpoint import load_prefix
        from repro.serve.service import ZCoverService

        checkpoint = os.fspath(tmp_path / "serve.ckpt")
        handle = ServiceThread(workers=1, port=0, checkpoint_path=checkpoint).start()
        try:
            client = ServeClient(port=handle.port)
            job_id = client.submit(SPEC_TRIALS).job_id
            assert client.wait(job_id, timeout=WAIT_S).state == JOB_DONE
            assert "unit" in record_kinds(checkpoint)  # a restore would compact them
            with open(checkpoint, "rb") as handle_file:
                before = handle_file.read()
            second = ZCoverService(
                port=handle.port if same_port else 0, checkpoint_path=checkpoint
            )
            with pytest.raises(OSError if same_port else ReproError):
                asyncio.run(second.start())
            with open(checkpoint, "rb") as handle_file:
                assert handle_file.read() == before
            # The live service still logs where the next life will look.
            second_job = client.submit(SPEC_SESSIONS).job_id
            assert client.wait(second_job, timeout=WAIT_S).state == JOB_DONE
            assert second_job in {line.job_id for line, _ in load_prefix(checkpoint)}
            assert client.result_bytes(job_id) == oracle_bytes(SPEC_TRIALS)
        finally:
            handle.stop(drain=True)
        # The lock goes with the service: the next life starts.
        restarted = ServiceThread(workers=1, port=0, checkpoint_path=checkpoint).start()
        try:
            assert ServeClient(port=restarted.port).result_bytes(job_id) == oracle_bytes(
                SPEC_TRIALS
            )
        finally:
            restarted.stop(drain=True)

    @pytest.mark.parametrize("host", ["", "localhost"], ids=["every-interface", "localhost"])
    def test_host_binds_every_address_it_names(self, host):
        """``""`` listens on every interface and a name on each of its
        addresses, all on one port."""
        import socket

        handle = ServiceThread(host=host, workers=1, port=0).start()
        try:
            bound = {
                listener.getsockname()[:2]
                for server in handle.service._servers
                for listener in server.sockets
            }
            named = {
                address[:2]
                for *_, address in socket.getaddrinfo(
                    host or None, handle.port, type=socket.SOCK_STREAM, flags=socket.AI_PASSIVE
                )
            }
            assert bound <= named and bound
            assert ServeClient(host="127.0.0.1", port=handle.port).healthz()["ok"]
        finally:
            handle.stop(drain=True)
