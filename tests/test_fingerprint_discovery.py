"""Tests for phase 1 (fingerprinting) and phase 2 (unknown discovery)."""

import pytest

from repro.errors import FuzzerError, TransceiverError
from repro.core.discovery import (
    SpecClusterer,
    ValidationTester,
    discover_unknown_properties,
)
from repro.core.fingerprint import (
    ActiveScanner,
    PassiveScanner,
    fingerprint,
)
from repro.core.properties import ControllerProperties
from repro.radio.clock import SimClock
from repro.radio.medium import RadioMedium
from repro.radio.transceiver import Transceiver
from repro.simulator.testbed import LISTED_15, LISTED_17, build_sut


class TestPassiveScanner:
    def test_requires_configured_dongle(self):
        clock = SimClock()
        medium = RadioMedium(clock)
        dongle = Transceiver(medium)
        with pytest.raises(TransceiverError):
            PassiveScanner(dongle, clock)

    def test_recovers_network_identifiers(self, sut):
        result = PassiveScanner(sut.dongle, sut.clock).scan(duration=120.0)
        assert result.home_id == sut.profile.home_id
        assert result.controller_node_id == 1
        assert set(result.node_ids) >= {1, 2, 3}
        assert result.frames_decoded > 0

    def test_quiet_network_raises(self, quiet_sut):
        with pytest.raises(FuzzerError):
            PassiveScanner(quiet_sut.dongle, quiet_sut.clock).scan(duration=30.0)

    def test_summary_string(self, sut):
        result = PassiveScanner(sut.dongle, sut.clock).scan(duration=120.0)
        assert f"{sut.profile.home_id:08X}" in result.network_summary

    def test_s2_network_still_fingerprintable(self, sut):
        """S2 encrypts only the APL: headers stay readable (Section III-B1)."""
        result = PassiveScanner(sut.dongle, sut.clock).scan(duration=120.0)
        assert result.home_id == sut.profile.home_id


class TestActiveScanner:
    def test_nif_interrogation(self, quiet_sut):
        scanner = ActiveScanner(quiet_sut.dongle, quiet_sut.clock)
        result = scanner.interrogate(quiet_sut.profile.home_id, 1)
        assert result.listed_cmdcls == quiet_sut.controller.listed_cmdcls
        assert result.node_info.is_controller
        assert result.probes_sent == 1

    def test_unreachable_controller_raises(self, quiet_sut):
        quiet_sut.controller.set_power(False)
        scanner = ActiveScanner(quiet_sut.dongle, quiet_sut.clock)
        with pytest.raises(FuzzerError):
            scanner.interrogate(quiet_sut.profile.home_id, 1)


class TestFingerprintPipeline:
    @pytest.mark.parametrize("device,expected", [("D1", 17), ("D3", 15)])
    def test_known_counts_match_table4(self, device, expected):
        sut = build_sut(device, seed=11)
        props = fingerprint(sut.dongle, sut.clock)
        assert props.known_count == expected
        assert props.fingerprinted

    def test_all_seven_controllers(self):
        for device in ("D1", "D2", "D3", "D4", "D5", "D6", "D7"):
            sut = build_sut(device, seed=3)
            props = fingerprint(sut.dongle, sut.clock)
            assert props.home_id == sut.profile.home_id
            assert props.controller_node_id == 1


class TestClustering:
    def test_candidates_for_17_listing(self, public_registry):
        result = SpecClusterer(public_registry).cluster(LISTED_17)
        assert result.candidate_count == 26  # Section III-C1

    def test_candidates_for_15_listing(self, public_registry):
        result = SpecClusterer(public_registry).cluster(LISTED_15)
        assert result.candidate_count == 28

    def test_candidates_exclude_listed(self, public_registry):
        result = SpecClusterer(public_registry).cluster(LISTED_17)
        assert not set(result.unlisted_candidates) & set(LISTED_17)

    def test_empty_listing_yields_all_relevant(self, public_registry):
        result = SpecClusterer(public_registry).cluster(())
        assert result.unlisted_candidates == result.controller_relevant
        assert len(result.controller_relevant) == 43


class TestValidationTesting:
    def test_probe_supported_class_responds(self, quiet_sut):
        tester = ValidationTester(quiet_sut.dongle, quiet_sut.clock)
        outcome = tester.probe(quiet_sut.profile.home_id, 1, 0x85)
        assert outcome.responded

    def test_probe_unsupported_class_silent(self, quiet_sut):
        tester = ValidationTester(quiet_sut.dongle, quiet_sut.clock)
        outcome = tester.probe(quiet_sut.profile.home_id, 1, 0x31)
        assert not outcome.responded

    def test_probe_never_triggers_bugs(self, quiet_sut):
        """Probes are command-less so they cannot reach a vulnerability."""
        tester = ValidationTester(quiet_sut.dongle, quiet_sut.clock)
        for cmdcl in (0x01, 0x59, 0x5A, 0x73, 0x7A, 0x86, 0x9F):
            tester.probe(quiet_sut.profile.home_id, 1, cmdcl)
        assert not quiet_sut.controller.hung
        assert quiet_sut.host.responsive
        assert [e for e in quiet_sut.controller.events() if e.bug_id] == []

    def test_sweep_finds_proprietary_classes(self, quiet_sut, public_registry):
        clusterer = SpecClusterer(public_registry)
        candidates = clusterer.cluster(LISTED_17).unlisted_candidates
        tester = ValidationTester(quiet_sut.dongle, quiet_sut.clock)
        result = tester.sweep(
            quiet_sut.profile.home_id, 1, candidates, public_registry
        )
        assert result.proprietary == (0x01, 0x02)
        assert set(result.confirmed_candidates) == set(candidates)
        assert result.probe_count == max(candidates) + 1


class TestDiscoveryPipeline:
    @pytest.mark.parametrize(
        "device,known,unknown", [("D1", 17, 28), ("D3", 15, 30), ("D7", 15, 30)]
    )
    def test_table4_numbers(self, device, known, unknown):
        sut = build_sut(device, seed=5)
        props = fingerprint(sut.dongle, sut.clock)
        props = discover_unknown_properties(sut.dongle, sut.clock, props)
        assert props.known_count == known
        assert props.unknown_count == unknown
        assert len(props.all_cmdcls) == 45

    def test_prioritized_queue_order(self, full_registry):
        sut = build_sut("D1", seed=5)
        props = fingerprint(sut.dongle, sut.clock)
        props = discover_unknown_properties(sut.dongle, sut.clock, props)
        queue = props.prioritized(full_registry)
        assert len(queue) == 45
        assert queue[0] == 0x34
        assert queue[1] == 0x01


class TestControllerProperties:
    def test_unknown_excludes_listed(self):
        props = ControllerProperties(
            home_id=1,
            controller_node_id=1,
            listed_cmdcls=(0x20, 0x59),
            validated_unknown=(0x59, 0x34),
            proprietary=(0x01,),
        )
        assert props.unknown_cmdcls == (0x01, 0x34)

    def test_all_cmdcls_union(self):
        props = ControllerProperties(
            listed_cmdcls=(0x20,), validated_unknown=(0x34,), proprietary=(0x01,)
        )
        assert props.all_cmdcls == (0x01, 0x20, 0x34)

    def test_not_fingerprinted_without_ids(self):
        assert not ControllerProperties().fingerprinted
