"""Integration tests: campaigns, the ablation, and the VFuzz baseline."""

import pytest

from repro.errors import CampaignError, FuzzerError
from repro.core.baseline import VFuzzBaseline
from repro.core.campaign import (
    Mode,
    build_queue,
    run_campaign,
)
from repro.core.properties import ControllerProperties
from repro.simulator.testbed import LISTED_17, build_sut
from repro.zwave.registry import load_full_registry


class TestBuildQueue:
    def props(self):
        return ControllerProperties(
            home_id=1,
            controller_node_id=1,
            listed_cmdcls=LISTED_17,
            validated_unknown=(0x34, 0x67),
            proprietary=(0x01, 0x02),
        )

    def test_full_queue_includes_unknown(self):
        queue = build_queue(Mode.FULL, self.props(), load_full_registry())
        assert 0x01 in queue and 0x34 in queue

    def test_beta_queue_is_listed_only(self):
        queue = build_queue(Mode.BETA, self.props(), load_full_registry())
        assert set(queue) == set(LISTED_17)

    def test_gamma_has_no_queue(self):
        with pytest.raises(CampaignError):
            build_queue(Mode.GAMMA, self.props(), load_full_registry())


class TestCampaignDuration:
    """A duration the fuzzing loop could never pass is refused up front."""

    @pytest.mark.parametrize("field", ["duration", "passive_duration"])
    @pytest.mark.parametrize("seconds", [float("nan"), float("inf"), -1.0])
    def test_rejected_before_a_sut_is_built(self, monkeypatch, field, seconds):
        import repro.core.campaign as campaign

        def no_sut(*args, **kwargs):
            raise AssertionError("build_sut ran for an invalid duration")

        # Were the check missing, infinity would scan or fuzz forever;
        # failing the build instead keeps this test from hanging.
        monkeypatch.setattr(campaign, "build_sut", no_sut)
        with pytest.raises(CampaignError, match=f"^{field} must be"):
            run_campaign("D1", Mode.FULL, seed=0, **{field: seconds})

    def test_zero_duration_skips_the_fuzzing_phase(self):
        result = run_campaign("D1", Mode.GAMMA, duration=0.0, seed=0, verify=False)
        assert result.fuzz.packets_sent == 0


class TestShortCampaigns:
    """Cheap end-to-end runs (minutes of simulated time)."""

    def test_full_campaign_twenty_minutes(self):
        result = run_campaign("D1", Mode.FULL, duration=1200.0, seed=0)
        # The CMDCL-0x01 bugs land in the first few minutes (Figure 12).
        assert {1, 2, 3, 4, 5, 12, 14} <= set(result.matched_bug_ids)
        assert result.properties.unknown_count == 28
        assert result.fuzz.packets_sent > 1000

    def test_beta_never_finds_0x01_bugs(self):
        result = run_campaign("D1", Mode.BETA, duration=1200.0, seed=0)
        assert not set(result.matched_bug_ids) & {1, 2, 3, 4, 5, 12, 14}
        assert result.fuzz.cmdcls_used <= set(LISTED_17)

    def test_gamma_covers_whole_space(self):
        result = run_campaign("D1", Mode.GAMMA, duration=600.0, seed=0)
        assert result.fuzz.cmdcl_coverage > 200

    def test_unverified_campaign_skips_replay(self):
        result = run_campaign("D1", Mode.FULL, duration=300.0, seed=0, verify=False)
        assert result.unique == {}
        assert result.fuzz.bug_log.records()

    def test_discovery_timeline_sorted(self):
        result = run_campaign("D1", Mode.FULL, duration=900.0, seed=0)
        times = [t for t, _, _ in result.discovery_timeline()]
        assert times == sorted(times)

    def test_deterministic_given_seed(self):
        one = run_campaign("D1", Mode.FULL, duration=400.0, seed=9, verify=False)
        two = run_campaign("D1", Mode.FULL, duration=400.0, seed=9, verify=False)
        assert one.fuzz.packets_sent == two.fuzz.packets_sent
        assert [r.payload_hex for r in one.fuzz.bug_log] == [
            r.payload_hex for r in two.fuzz.bug_log
        ]


class TestVFuzzBaseline:
    def test_seeds_from_sniffed_traffic(self):
        sut = build_sut("D1", seed=0)
        baseline = VFuzzBaseline(sut, seed=0)
        assert baseline.collect_seeds() > 0

    def test_quiet_network_raises(self):
        sut = build_sut("D1", seed=0, traffic=False)
        baseline = VFuzzBaseline(sut, seed=0)
        with pytest.raises(FuzzerError):
            baseline.run(60.0)

    def test_full_cmdcl_cmd_coverage(self):
        sut = build_sut("D3", seed=0)
        result = VFuzzBaseline(sut, seed=0).run(300.0)
        assert result.cmdcl_coverage == 256
        assert result.cmd_coverage > 250

    def test_most_packets_rejected(self):
        """Table V's mechanism: MAC mutation breaks frame validity."""
        sut = build_sut("D3", seed=0)
        result = VFuzzBaseline(sut, seed=0).run(600.0)
        assert result.accepted_estimate < result.packets_sent * 0.01

    def test_finds_d1_mac_quirk(self):
        sut = build_sut("D1", seed=0)
        result = VFuzzBaseline(sut, seed=0).run(600.0)
        assert result.quirks_found == ["LEN-OVERRUN"]
        assert result.unique_vulnerabilities == 1

    def test_clean_devices_yield_nothing(self):
        for device in ("D3", "D5"):
            sut = build_sut(device, seed=0)
            result = VFuzzBaseline(sut, seed=0).run(600.0)
            assert result.unique_vulnerabilities == 0

    def test_never_triggers_zcover_bugs_quickly(self):
        sut = build_sut("D1", seed=0)
        result = VFuzzBaseline(sut, seed=0).run(1800.0)
        assert result.zero_day_payloads == []
