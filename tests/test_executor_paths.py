"""One attempt policy, three execution paths.

The same worker faults run through the in-process executor
(``execute_units(workers=1)``), the pooled executor
(``execute_units(workers=2)``) and the job service (its unit list
swapped in through ``spec_units``).  Every path must report the same
per-unit attempts, failure categories and failure text, the same merged
harness metrics, and byte-identical results for the healthy units.

``exit`` would kill the test process in-process, so it runs on the pool
and the service only.

The service's shared pool is respawned once per breakage, a job queued
behind a crashing one is not charged for the crash, and the drain inside
the policy is checked directly against hand-settled futures.
"""

import json
import multiprocessing
import os
import signal
from concurrent.futures import Future

import pytest

import repro.serve.service as service_module
from repro.core import parallel
from repro.core.campaign import Mode
from repro.core.parallel import (
    FAILURE_CRASH,
    CampaignUnit,
    UnitOutcome,
    execute_units,
    _settle_all,
    parallel_supported,
    unit_attempts,
)
from repro.core.resultio import campaign_to_wire
from repro.core.trials import merge_trials
from repro.obs.export import canonical_dumps
from repro.serve.client import ServeClient
from repro.serve.protocol import JOB_DONE, JobSpec
from repro.serve.results import direct_document, dumps_result_document, spec_units
from repro.serve.service import ServiceThread
from repro.wire import dumps_wire

pytestmark = pytest.mark.skipif(not parallel_supported(), reason="no process pool here")

DURATION = 300.0
WAIT_S = 300.0


def units_with(fault, faulty_first=False):
    """Two healthy trials and one faulty unit.

    The faulty unit goes last by default.  An ``exit`` goes first instead: it
    breaks the pool before either healthy unit can finish, so both are
    collateral on every path rather than racing the crash.
    """
    healthy = [
        CampaignUnit(device="D1", mode=Mode.FULL, duration=DURATION, seed=seed)
        for seed in (0, 1000)
    ]
    bad = CampaignUnit(device="D1", mode=Mode.FULL, duration=DURATION, seed=9999, fault=fault)
    return [bad] + healthy if faulty_first else healthy + [bad]


def run_served(units, monkeypatch, seed=0, workers=2):
    """Run *units* as one service job; returns (outcomes, service counters)."""
    captured = {}
    document_from_outcomes = service_module.document_from_outcomes

    def capture(spec, outcomes):
        captured["outcomes"] = list(outcomes)
        return document_from_outcomes(spec, outcomes)

    monkeypatch.setattr(service_module, "spec_units", lambda spec: list(units))
    monkeypatch.setattr(service_module, "document_from_outcomes", capture)
    handle = ServiceThread(workers=workers, port=0).start()
    try:
        client = ServeClient(port=handle.port)
        spec = JobSpec(kind="trials", device="D1", mode="full", seed=seed, trials=3, hours=0.05)
        final = client.wait(client.submit(spec).job_id, timeout=WAIT_S)
        assert final.state == JOB_DONE
        _, body = client._request("GET", "/metrics")
        counters = json.loads(body.decode("utf-8"))["counters"]
    finally:
        handle.stop(drain=True)
    return captured["outcomes"], counters


def fingerprint(outcomes):
    """Everything the paths must agree on, in comparable form."""
    per_unit = [
        (
            o.attempts,
            None if o.failure is None else o.failure.category,
            None if o.failure is None else o.failure.render(),
            None if o.result is None else dumps_wire(campaign_to_wire(o.result)),
        )
        for o in outcomes
    ]
    summary = merge_trials("D1", Mode.FULL, DURATION, outcomes)
    return per_unit, summary.harness_metrics, canonical_dumps(summary.metrics_document())


def marker(tmp_path, name):
    return f"raise-once:{tmp_path / name}"


class TestOnePolicy:
    def test_raise_on_all_paths(self, monkeypatch):
        units = units_with("raise")
        inline = fingerprint(execute_units(units, workers=1))
        pooled = fingerprint(execute_units(units, workers=2))
        served = fingerprint(run_served(units, monkeypatch, seed=1)[0])
        assert inline == pooled == served
        per_unit = inline[0]
        assert [u[0] for u in per_unit] == [1, 1, 2]
        assert per_unit[2][1] == "exception"
        assert per_unit[2][2].endswith("RuntimeError: injected fault: raise")

    def test_transient_raise_on_all_paths(self, tmp_path, monkeypatch):
        # Each path gets its own marker file, so each sees a first failure.
        inline = fingerprint(execute_units(units_with(marker(tmp_path, "inline")), workers=1))
        pooled = fingerprint(execute_units(units_with(marker(tmp_path, "pooled")), workers=2))
        served_units = units_with(marker(tmp_path, "served"))
        served = fingerprint(run_served(served_units, monkeypatch, seed=2)[0])
        assert inline == pooled == served
        assert [u[0] for u in inline[0]] == [1, 1, 2]
        assert all(u[1] is None and u[3] is not None for u in inline[0])

    def test_exit_on_pool_and_service(self, monkeypatch):
        units = units_with("exit", faulty_first=True)
        pooled = fingerprint(execute_units(units, workers=2))
        served = fingerprint(run_served(units, monkeypatch, seed=3)[0])
        assert pooled == served
        assert [u[0] for u in pooled[0]] == [2, 2, 2]
        bad = pooled[0][0]
        assert bad[1] == FAILURE_CRASH
        assert "BrokenProcessPool" in bad[2]


class TestSharedPoolRespawn:
    def test_one_broken_pool_is_respawned_once(self, monkeypatch):
        # Collateral futures of the broken pool and the crash inside the
        # isolated retry pool must not tear down the fresh shared pool.
        outcomes, counters = run_served(units_with("exit"), monkeypatch, seed=4)
        assert counters["serve.pool.respawns"] == 1
        failed = [o for o in outcomes if o.failure is not None]
        assert len(failed) == 1
        assert failed[0].failure.category == FAILURE_CRASH
        assert failed[0].attempts == 2
        assert all(o.result is not None for o in outcomes[:2])

    def test_pool_killed_between_jobs_is_respawned(self):
        # A worker killed while idle (say, by the OOM killer) breaks the
        # shared pool before the next job submits: that job's first
        # attempts fail as crashes, the pool is respawned once, and the
        # retries still give the oracle's bytes.
        handle = ServiceThread(workers=1, port=0).start()
        try:
            client = ServeClient(port=handle.port)
            first, second = (
                JobSpec(kind="sessions", device="D1", seed=seed, trials=2, flows=("inclusion",))
                for seed in (5, 6)
            )
            assert client.wait(client.submit(first).job_id, timeout=WAIT_S).state == JOB_DONE
            for child in multiprocessing.active_children():
                os.kill(child.pid, signal.SIGKILL)
            final = client.wait(client.submit(second).job_id, timeout=WAIT_S)
            assert final.state == JOB_DONE
            expected = dumps_result_document(direct_document(second)).encode("utf-8")
            assert client.result_bytes(final.job_id) == expected
            _, body = client._request("GET", "/metrics")
            assert json.loads(body.decode("utf-8"))["counters"]["serve.pool.respawns"] == 1
        finally:
            handle.stop(drain=True)


class TestCrossJobCrash:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_job_behind_a_crash_is_restarted_not_charged(
        self, monkeypatch, hold_runner, workers
    ):
        # Job A's one unit kills its worker while job B's units wait
        # behind it on the same executor.  B starts again on the respawned
        # pool, so its attempts, metrics and bytes are those of B alone.
        crashing, healthy = (
            JobSpec(kind="trials", device="D1", mode="full", seed=seed, trials=trials, hours=0.05)
            for seed, trials in ((7, 1), (8, 2))
        )
        crash_units = [CampaignUnit(device="D1", duration=DURATION, seed=9999, fault="exit")]
        captured = {}
        document_from_outcomes = service_module.document_from_outcomes

        def capture(spec, outcomes):
            captured[spec] = list(outcomes)
            return document_from_outcomes(spec, outcomes)

        monkeypatch.setattr(
            service_module,
            "spec_units",
            lambda spec: list(crash_units) if spec == crashing else spec_units(spec),
        )
        monkeypatch.setattr(service_module, "document_from_outcomes", capture)
        handle = ServiceThread(workers=workers, port=0).start()
        try:
            gate = hold_runner(handle)
            client = ServeClient(port=handle.port)
            first, second = (client.submit(spec).job_id for spec in (crashing, healthy))
            gate.set()
            assert client.wait(first, timeout=WAIT_S).state == JOB_DONE
            assert client.wait(second, timeout=WAIT_S).state == JOB_DONE
            served = client.result_bytes(second)
            _, body = client._request("GET", "/metrics")
            counters = json.loads(body.decode("utf-8"))["counters"]
        finally:
            handle.stop(drain=True)
        (crash,) = captured[crashing]
        assert crash.failure.category == FAILURE_CRASH
        alone = execute_units(spec_units(healthy), workers=workers)
        assert fingerprint(captured[healthy]) == fingerprint(alone)
        assert [o.attempts for o in captured[healthy]] == [1, 1]
        assert served == dumps_result_document(direct_document(healthy)).encode("utf-8")
        assert counters["serve.pool.respawns"] == 1
        assert counters["serve.jobs.queued_ahead"] == 1
        assert counters["serve.jobs.restarted"] == 1


class _HeldPool:
    """A pool whose futures the test settles by hand."""

    def __init__(self):
        self.executor = object()
        self.futures = []

    def submit(self, unit):
        self.futures.append(Future())
        return self.futures[-1]


class _InterruptedPool(_HeldPool):
    """A pool whose worker was interrupted: every future holds the interrupt."""

    def submit(self, unit):
        future = super().submit(unit)
        future.set_exception(KeyboardInterrupt())
        return future


class TestDrain:
    def test_interrupt_cancels_queued_and_waits_for_in_flight(self):
        pool = _HeldPool()
        outcomes = [UnitOutcome(unit=unit) for unit in units_with(None)]
        reported = []
        core = unit_attempts(
            outcomes, pool,
            report=lambda index, outcome, wire: reported.append((index, wire)),
            rehydrate=lambda unit, wire: wire,
        )
        first = next(core)
        first.set_running_or_notify_cancel()  # unit 0 is in flight
        assert core.throw(KeyboardInterrupt()) is first
        assert pool.futures[1].cancelled() and pool.futures[2].cancelled()
        with pytest.raises(StopIteration) as stop:
            core.send(("wire-0", None))
        assert stop.value.value is True
        assert reported == [(0, "wire-0")]
        assert outcomes[0].result == "wire-0"
        assert all(o.result is None and o.failure is None for o in outcomes[1:])

    def test_failure_during_drain_is_not_retried(self):
        pool = _HeldPool()
        outcomes = [UnitOutcome(unit=unit) for unit in units_with(None)[:1]]
        draining = [False]
        core = unit_attempts(outcomes, pool, draining=lambda: draining[0])
        next(core)
        draining[0] = True
        with pytest.raises(StopIteration):
            core.send((None, RuntimeError("lost while draining")))
        assert len(pool.futures) == 1
        assert outcomes[0].attempts == 1
        assert outcomes[0].result is None and outcomes[0].failure is None

    def test_interrupted_worker_fails_only_its_unit(self, monkeypatch):
        # A worker's own KeyboardInterrupt (Ctrl-C reaches the whole
        # process group) is that unit's error, not a second interrupt of
        # the parent: it must settle once instead of being re-thrown.
        monkeypatch.setattr(parallel, "UNIT_RETRIES", 0)
        pool = _InterruptedPool()
        outcomes = [UnitOutcome(unit=unit) for unit in units_with(None)[:1]]
        assert _settle_all(unit_attempts(outcomes, pool)) is False
        assert outcomes[0].failure.category == "exception"
        assert outcomes[0].failure.error == "KeyboardInterrupt"
