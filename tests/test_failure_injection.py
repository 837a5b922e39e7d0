"""Failure injection: the framework keeps working when the world breaks.

Faults are declared as :mod:`repro.faults` plans, not conjured from
magic distances or monkeypatched internals.  The resilience matrix at
the bottom is the core guarantee: for every fault family, a campaign
series finishes (degraded or with surfaced failures, never wedged) and
its merged metrics are byte-identical between the serial and the
sharded executor.
"""

import random

import pytest

from repro.core.buglog import BugLog
from repro.core.campaign import Mode, run_campaign
from repro.core.fuzzer import FuzzerConfig, FuzzingEngine, psm_streams
from repro.core.mutation import PositionSensitiveMutator
from repro.core.parallel import parallel_supported
from repro.core.tester import PacketTester
from repro.core.trials import run_trials
from repro.faults import (
    FaultPlan,
    FaultSchedule,
    FaultSpec,
    MediumFaultInjector,
    flaky_controller_plan,
    lossy_link_plan,
)
from repro.faults.report import build_chaos_document
from repro.obs.export import canonical_dumps
from repro.radio.medium import RadioMedium
from repro.radio.clock import SimClock
from repro.simulator.host import HostState
from repro.simulator.testbed import build_sut
from repro.zwave.registry import load_full_registry


class TestLossyLinks:
    def test_fuzzing_survives_a_marginal_link(self):
        """Under a lossy-link plan most frames drop; the engine must not
        wedge or crash.

        Lost pings read as hangs, so the engine power-cycles a healthy
        controller now and then — wasteful but safe, exactly what the
        paper's operator would see with a badly placed antenna.
        """
        schedule = FaultSchedule(lossy_link_plan(0.6, 0.2), 13)
        sut = build_sut("D1", seed=13)
        sut.medium.fault_injector = MediumFaultInjector(
            schedule.medium_specs, schedule.medium_rng()
        )
        engine = FuzzingEngine(sut, FuzzerConfig())
        mutator = PositionSensitiveMutator(load_full_registry(), random.Random(13))
        result = engine.run(psm_streams([0x20, 0x25], mutator, 30.0, False), 120.0)
        assert result.packets_sent > 0
        assert not sut.controller.hung
        assert sut.medium.fault_injector.injected > 0

    def test_campaign_on_the_far_edge_still_finds_bugs(self):
        # The marginal link is a fault plan now, not a magic attacker
        # distance — and the campaign proves the faults actually applied.
        plan = lossy_link_plan(drop_rate=0.25, corrupt_rate=0.05)
        result = run_campaign(
            "D1", Mode.FULL, duration=900.0, seed=13, fault_plan=plan
        )
        assert result.metrics.counters["faults.injected.medium.drop"] > 0
        assert result.metrics.counters["faults.injected.medium.corrupt"] > 0
        assert result.unique_vulnerabilities >= 5


class TestPowerFailures:
    def test_controller_power_cycle_mid_run(self):
        sut = build_sut("D1", seed=14, traffic=False)
        engine = FuzzingEngine(sut, FuzzerConfig())
        mutator = PositionSensitiveMutator(load_full_registry(), random.Random(14))

        # Schedule a blackout 20 simulated seconds in.
        sut.clock.schedule(20.0, lambda: sut.controller.set_power(False))
        sut.clock.schedule(40.0, lambda: sut.controller.set_power(True))
        result = engine.run(psm_streams([0x20], mutator, 120.0, True), 90.0)
        # The outage reads as unresponsiveness; the engine recovers and
        # finishes the run.
        assert result.duration >= 89.0

    def test_host_crash_storm(self):
        """Repeated host crashes never stall the engine."""
        sut = build_sut("D1", seed=15, traffic=False)
        engine = FuzzingEngine(sut, FuzzerConfig())
        mutator = PositionSensitiveMutator(load_full_registry(), random.Random(15))
        result = engine.run(psm_streams([0x9F], mutator, 60.0, True), 300.0)
        crashes = [d for d in result.detections if d.observed == "host_crash"]
        assert crashes
        assert sut.host.state is HostState.RUNNING  # restarted after the last one


class TestCorruptInputs:
    def test_bug_log_with_corrupt_line(self, tmp_path):
        path = tmp_path / "bugs.jsonl"
        path.write_text('{"timestamp": 1.0, "packet_no": 1, "cmdcl": 90, '
                        '"cmd": 1, "payload_hex": "5a01", "observed": "hang"}\n')
        log = BugLog.load(path)
        assert len(log.records()) == 1
        path.write_text(path.read_text() + "not json\n")
        with pytest.raises(Exception):
            BugLog.load(path)

    def test_packet_tester_on_garbage(self):
        tester = PacketTester("D1", seed=0)
        assert tester.verify_payload(b"\xff") is None
        assert tester.verify_payload(b"") is None or True  # must not raise

    def test_verify_payload_that_kills_the_radio_path(self):
        # A payload that is pure padding still replays cleanly.
        tester = PacketTester("D1", seed=0)
        assert tester.verify_payload(b"\x00" * 40) is None


class TestCongestedMedium:
    def test_many_endpoints_share_the_channel(self):
        clock = SimClock()
        medium = RadioMedium(clock, random.Random(5))
        received = {"count": 0}

        def make_callback(name):
            def callback(reception):
                received["count"] += 1

            return callback

        from repro.zwave.constants import Region

        for i in range(50):
            medium.attach(f"node-{i}", (float(i % 7), float(i // 7)), Region.US, make_callback(i))
        from repro.zwave.frame import make_nop

        for i in range(20):
            medium.transmit(f"node-{i}", make_nop(0x1234, 1, 2).encode(), 100.0)
        clock.advance(5.0)
        # Every transmission reaches the other 49 endpoints.
        assert received["count"] == 20 * 49


# -- the resilience matrix -----------------------------------------------------

#: One plan per fault family.  The worker plan targets unit 0 only so the
#: second trial survives; "raise" (not "crash") keeps the serial path —
#: which runs the fault in-process — alive.
FAMILY_PLANS = {
    "medium": lossy_link_plan(drop_rate=0.3, corrupt_rate=0.1),
    "controller": flaky_controller_plan(
        hang_every_s=60.0, hang_s=2.0, reset_every_s=150.0
    ),
    "worker": FaultPlan(
        name="worker-raise-first",
        faults=(FaultSpec("worker", "raise", unit_index=0),),
    ),
    "campaign": FaultPlan(
        name="abort-early",
        faults=(FaultSpec("campaign", "abort", at_s=120.0),),
    ),
}

DURATION = 300.0
TRIALS = 2


def _chaos_doc(plan, workers):
    summary = run_trials(
        device="D1",
        mode=Mode.FULL,
        n_trials=TRIALS,
        duration=DURATION,
        base_seed=0,
        workers=workers,
        fault_plan=plan,
    )
    return summary, canonical_dumps(build_chaos_document(summary, plan, 0))


@pytest.mark.parametrize("family", sorted(FAMILY_PLANS))
class TestResilienceMatrix:
    def test_campaigns_finish_and_shard_identically(self, family):
        """Fault family x {serial, workers=2}: campaigns always finish,
        surviving trials are merged, and the canonical chaos document —
        merged metrics included — is byte-identical across executors."""
        plan = FAMILY_PLANS[family]
        serial_summary, serial_doc = _chaos_doc(plan, workers=1)

        # The series completed: every unit either produced a trial or a
        # structured failure — nothing wedged, nothing vanished.
        assert serial_summary.n_trials + len(serial_summary.failures) == TRIALS
        if family == "worker":
            # Unit 0's injected raise exhausts its retries and surfaces;
            # the other trial must survive untouched.
            assert len(serial_summary.failures) == 1
            assert serial_summary.n_trials == TRIALS - 1
        else:
            assert not serial_summary.failures
        if family == "campaign":
            assert all(
                t.degradation is not None and t.degradation.reason == "abort"
                for t in serial_summary.trials
            )

        if not parallel_supported():
            pytest.skip("no process pool here")
        _, parallel_doc = _chaos_doc(plan, workers=2)
        assert serial_doc == parallel_doc

    def test_reports_are_reproducible(self, family):
        """Same plan + seed: byte-identical documents on repeated runs."""
        plan = FAMILY_PLANS[family]
        _, first = _chaos_doc(plan, workers=1)
        _, second = _chaos_doc(plan, workers=1)
        assert first == second


# -- worker faults at the CLI --------------------------------------------------

#: command -> (argv, exit code, label of the unit at index 0).  A failed
#: trial is a row of the summary (exit 1); a failed compare unit fails the
#: comparison (exit 1); a failed ablation arm fails the table, which the
#: CLI reports as one ``zcover ablation:`` line (exit 2).
WORKER_FAULT_COMMANDS = {
    "trials": (["trials", "--trials", "2"], 1, "zcover:D1:FULL:seed=0"),
    "ablation": (["ablation"], 2, "zcover:D1:FULL:seed=0"),
    "compare": (["compare", "--devices", "D1"], 1, "vfuzz:D1:FULL:seed=0"),
}


@pytest.mark.parametrize("command", sorted(WORKER_FAULT_COMMANDS))
def test_worker_fault_plan_file_reaches_every_command(command, tmp_path, capsys):
    """A worker fault targets a unit by its position in the job's unit
    list, whatever the job: unit 0 exhausts its attempts and fails."""
    from repro.cli import main
    from repro.faults.plan import dumps_plan

    plan = tmp_path / "worker.json"
    plan.write_text(dumps_plan(FAMILY_PLANS["worker"]), encoding="utf-8")
    argv, code, label = WORKER_FAULT_COMMANDS[command]
    assert main(argv + ["--hours", "0.01", "--fault-plan", str(plan)]) == code
    out, err = capsys.readouterr()
    failed = [line for line in (out + err).splitlines() if "FAILED" in line]
    assert len(failed) == 1, out + err
    assert f"FAILED {label} " in failed[0]
    assert "injected fault: raise" in failed[0]
