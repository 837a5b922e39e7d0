"""Tests for the campaign result's JSON export."""

import json

import pytest

from repro.core.campaign import Mode, run_campaign


class TestCampaignExport:
    @pytest.fixture(scope="class")
    def result(self):
        return run_campaign("D1", Mode.FULL, duration=600.0, seed=0)

    def test_round_trips_through_json(self, result):
        blob = json.dumps(result.to_dict())
        data = json.loads(blob)
        assert data["device"] == "D1"
        assert data["mode"] == "FULL"

    def test_summary_fields(self, result):
        data = result.to_dict()
        assert data["packets_sent"] == result.fuzz.packets_sent
        assert data["unique_vulnerabilities"] == result.unique_vulnerabilities
        assert data["fingerprint"]["home_id"] == "E7DE3F3D"
        assert data["fingerprint"]["unknown_cmdcls"] == 28

    def test_findings_sorted_and_complete(self, result):
        findings = result.to_dict()["findings"]
        assert len(findings) == result.unique_vulnerabilities
        times = [f["first_detection_time"] for f in findings]
        assert times == sorted(times)
        first = findings[0]
        assert first["bug_id"] == 5
        assert first["cve"] == "CVE-2024-50921"
        assert first["cmdcl"] == 0x01
