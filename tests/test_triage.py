"""Tests for crash triage and payload minimisation."""


from repro.analysis.triage import (
    CrashTriage,
    PayloadMinimizer,
    render_triage_report,
)
from repro.core.buglog import BugLog, BugRecord
from repro.core.monitor import ObservedKind


class TestPayloadMinimizer:
    def test_strips_redundant_trailing_bytes(self):
        minimizer = PayloadMinimizer("D1", seed=0)
        # Bug 7 triggers on [0x5A, cmd] alone; garbage after the CMDCL/CMD
        # pair would change the shape, so feed a padded *hang* payload that
        # tolerates shrinking: bug 14 fires for any mask length > 29.
        bloated = bytes([0x01, 0x04, 0xFF, 0x12, 0x34, 0x56])
        minimal = minimizer.minimize(bloated)
        assert minimal == bytes([0x01, 0x04, 0xFF])

    def test_zeroes_irrelevant_parameters(self):
        minimizer = PayloadMinimizer("D1", seed=0)
        # Bug 8 needs cmd 0x03 and >= 2 params of any value.
        minimal = minimizer.minimize(bytes([0x59, 0x03, 0x7F, 0x7F]))
        assert minimal == bytes([0x59, 0x03, 0x00, 0x00])

    def test_preserves_discriminating_parameter(self):
        minimizer = PayloadMinimizer("D1", seed=0)
        # Bug 2's operation byte 0x02 must survive: zeroing it would turn
        # the finding into bug 12 (a different signature).
        minimal = minimizer.minimize(bytes([0x01, 0x0D, 0x02, 0x02, 0xAA]))
        assert minimal[:2] == bytes([0x01, 0x0D])
        assert minimal[3] == 0x02

    def test_non_triggering_payload_unchanged(self):
        minimizer = PayloadMinimizer("D1", seed=0)
        benign = bytes([0x20, 0x02])
        assert minimizer.minimize(benign) == benign

    def test_already_minimal_payload(self):
        minimizer = PayloadMinimizer("D1", seed=0)
        assert minimizer.minimize(bytes([0x5A, 0x01])) == bytes([0x5A, 0x01])


class TestCrashTriage:
    def make_log(self):
        log = BugLog()
        # Two duplicates of bug 7 via different commands, one bug 3.
        log.add(BugRecord.from_payload(10.0, 100, bytes([0x5A, 0x01]), ObservedKind.HANG))
        log.add(BugRecord.from_payload(11.0, 101, bytes([0x5A, 0x02]), ObservedKind.HANG))
        log.add(BugRecord.from_payload(12.0, 102, bytes([0x5A, 0x01]), ObservedKind.HANG))
        log.add(
            BugRecord.from_payload(
                20.0, 200, bytes([0x01, 0x0D, 0x02, 0x03]), ObservedKind.MEMORY_REMOVE
            )
        )
        return log

    def test_dedup_by_signature(self):
        triaged = CrashTriage("D1", seed=0, minimize=False).triage(self.make_log())
        assert len(triaged) == 2

    def test_occurrence_counting(self):
        triaged = CrashTriage("D1", seed=0, minimize=False).triage(self.make_log())
        hang = next(t for t in triaged if t.finding.kind is ObservedKind.HANG)
        assert hang.occurrences == 3

    def test_deterministic_sut_is_fully_stable(self):
        triaged = CrashTriage("D1", seed=0, minimize=False).triage(self.make_log())
        assert all(t.stability == 1.0 for t in triaged)

    def test_persistent_impact_ranks_first(self):
        triaged = CrashTriage("D1", seed=0, minimize=False).triage(self.make_log())
        assert triaged[0].finding.duration_s is None  # memory bug first

    def test_minimized_payloads_attached(self):
        triaged = CrashTriage("D1", seed=0, minimize=True).triage(self.make_log())
        memory = next(t for t in triaged if t.finding.kind is ObservedKind.MEMORY_REMOVE)
        assert memory.minimized_payload is not None
        assert memory.minimized_payload[0] == 0x01

    def test_report_rendering(self):
        triaged = CrashTriage("D1", seed=0).triage(self.make_log())
        report = render_triage_report(triaged)
        assert "CVE-2023-6533" in report  # bug 7
        assert "stable 100%" in report
