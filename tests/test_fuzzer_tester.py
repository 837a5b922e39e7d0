"""Tests for the fuzzing engine (Algorithm 1) and the packet tester."""

import random

import pytest

from repro.core.fuzzer import (
    FuzzerConfig,
    FuzzingEngine,
    psm_streams,
    random_stream,
)
from repro.core.mutation import PositionSensitiveMutator, RandomMutator
from repro.core.tester import PacketTester
from repro.errors import CampaignError
from repro.core.monitor import ObservedKind
from repro.simulator.host import HostState
from repro.zwave.registry import load_full_registry


def engine_for(sut, **config_overrides):
    config = FuzzerConfig(**config_overrides)
    return FuzzingEngine(sut, config)


def psm(queue, seed=0, window=60.0, requeue=False):
    mutator = PositionSensitiveMutator(load_full_registry(), random.Random(seed))
    return psm_streams(queue, mutator, window, requeue)


class TestEngineTiming:
    def test_packet_rate_matches_paper(self, quiet_sut):
        """≈800 packets in 600 s (Figure 12)."""
        engine = engine_for(quiet_sut)
        result = engine.run(psm([0x62, 0x60, 0x70, 0x71, 0x85, 0x26, 0x25, 0x20, 0x27, 0x2B], window=60.0), 600.0)
        assert 700 <= result.packets_sent <= 830

    def test_respects_duration(self, quiet_sut):
        engine = engine_for(quiet_sut)
        result = engine.run(psm([0x20], requeue=True), 30.0)
        assert result.duration == pytest.approx(30.0, abs=2.0)

    def test_window_moves_queue_forward(self, quiet_sut):
        engine = engine_for(quiet_sut, cmdcl_time=15.0)
        result = engine.run(psm([0x62, 0x70, 0x85]), 300.0)
        assert result.windows_completed == 3
        assert result.cmdcls_used == {0x62, 0x70, 0x85}


class TestEngineDetection:
    def test_detects_hang_bug(self, quiet_sut):
        engine = engine_for(quiet_sut)
        result = engine.run(psm([0x5A]), 30.0)
        assert any(d.cmdcl == 0x5A and d.observed == "hang" for d in result.detections)

    def test_detects_memory_bugs(self, quiet_sut):
        engine = engine_for(quiet_sut)
        result = engine.run(psm([0x01], window=120.0), 200.0)
        kinds = {d.observed for d in result.detections}
        assert "memory_wakeup_clear" in kinds
        assert "memory_modify" in kinds

    def test_detects_host_bug(self, quiet_sut):
        engine = engine_for(quiet_sut)
        result = engine.run(psm([0x9F], window=90.0), 120.0)
        assert any(d.observed == "host_crash" for d in result.detections)

    def test_recovery_restores_sut(self, quiet_sut):
        golden = quiet_sut.controller.nvm.snapshot()
        engine = engine_for(quiet_sut)
        engine.run(psm([0x01], window=120.0), 200.0)
        assert not quiet_sut.controller.hung
        assert quiet_sut.host.state is HostState.RUNNING
        assert quiet_sut.controller.nvm.snapshot() == golden

    def test_bug_log_matches_detections(self, quiet_sut):
        engine = engine_for(quiet_sut)
        result = engine.run(psm([0x5A, 0x7A]), 150.0)
        assert len(result.bug_log.records()) == len(result.detections)

    def test_duplicate_findings_do_not_extend_window(self, quiet_sut):
        # 0x5A triggers on every bare command; without novelty gating the
        # fuzzer would never leave the class.
        engine = engine_for(quiet_sut, cmdcl_time=20.0)
        result = engine.run(psm([0x5A, 0x62]), 600.0)
        assert 0x62 in result.cmdcls_used

    def test_timeline_sampled(self, quiet_sut):
        engine = engine_for(quiet_sut)
        result = engine.run(psm([0x20], requeue=True), 60.0)
        assert result.timeline
        assert result.timeline[-1].packets == result.packets_sent


class TestRandomStream:
    def test_gamma_stream_runs(self, quiet_sut):
        engine = engine_for(quiet_sut)
        result = engine.run(random_stream(RandomMutator(random.Random(0))), 60.0)
        assert result.packets_sent > 50
        assert result.cmdcl_coverage > 40


class TestPacketTester:
    @pytest.mark.parametrize("wait", [float("nan"), float("inf"), 0.0, -5.0])
    def test_rejects_a_hang_wait_that_cannot_end_sensibly(self, wait):
        with pytest.raises(CampaignError, match="max_hang_wait"):
            PacketTester("D1", seed=0, max_hang_wait=wait)

    def test_verify_hang_payload_measures_duration(self):
        tester = PacketTester("D1", seed=0)
        finding = tester.verify_payload(bytes([0x5A, 0x01]))
        assert finding is not None
        assert finding.kind is ObservedKind.HANG
        assert finding.duration_s == pytest.approx(68.0, abs=2.0)
        assert finding.match_table3().bug_id == 7

    def test_verify_distinguishes_same_class_hangs(self):
        tester = PacketTester("D1", seed=0)
        bug8 = tester.verify_payload(bytes([0x59, 0x03, 0x00, 0x01]))
        bug11 = tester.verify_payload(bytes([0x59, 0x05, 0x00, 0x01]))
        assert bug8.match_table3().bug_id == 8
        assert bug11.match_table3().bug_id == 11
        assert bug8.signature != bug11.signature

    def test_verify_memory_payload(self):
        tester = PacketTester("D1", seed=0)
        finding = tester.verify_payload(bytes([0x01, 0x0D, 0x02, 0x03]))
        assert finding.kind is ObservedKind.MEMORY_REMOVE
        assert finding.duration_s is None
        assert finding.duration_label == "Infinite"
        assert finding.match_table3().bug_id == 3

    def test_verify_host_payload(self):
        tester = PacketTester("D1", seed=0)
        finding = tester.verify_payload(bytes([0x9F, 0x01]))
        assert finding.kind is ObservedKind.HOST_CRASH
        assert finding.match_table3().bug_id == 6

    def test_verify_benign_payload_returns_none(self):
        tester = PacketTester("D1", seed=0)
        assert tester.verify_payload(bytes([0x20, 0x02])) is None

    def test_bug14_four_minute_outage(self):
        tester = PacketTester("D1", seed=0)
        finding = tester.verify_payload(bytes([0x01, 0x04, 0xFF]))
        assert finding.kind is ObservedKind.HANG
        assert finding.duration_s == pytest.approx(240.0, abs=2.0)
        assert finding.duration_label == "4 min"
        assert finding.match_table3().bug_id == 14

    def test_verify_log_dedups_by_signature(self):
        tester = PacketTester("D1", seed=0)
        groups = [
            (bytes([0x5A, 0x01]), 10.0, 13),
            (bytes([0x5A, 0x02]), 12.0, 16),  # same bug, different command
            (bytes([0x9F, 0x01]), 20.0, 27),
        ]
        unique = tester.verify_log(groups)
        assert len(unique) == 2
        hang = next(u for u in unique.values() if u.finding.kind is ObservedKind.HANG)
        assert hang.first_detection_time == 10.0  # earliest representative

    def test_unmatched_finding_has_no_bug(self):
        tester = PacketTester("D1", seed=0)
        finding = tester.verify_payload(bytes([0x5A, 0x01]))
        # Force a signature far from any canonical duration.
        from dataclasses import replace

        odd = replace(finding, duration_s=500.0)
        assert odd.match_table3() is None
