"""Tests for the Table III zero-day models and the MAC one-day quirks."""

import pytest

from repro.core.tester import _KIND_TO_EFFECT, VerifiedFinding
from repro.simulator.vulnerabilities import (
    CMDCL_0X01_BUG_IDS,
    DEVICE_MAC_QUIRKS,
    MAC_QUIRK_CATALOG,
    RootCause,
    TriggerContext,
    ZERO_DAYS,
    zero_day_by_id,
)
from repro.zwave.checksum import cs8
from repro.zwave.frame import ZWaveFrame

SUPPORTED = tuple(range(0x20, 0xA0))  # superset for predicate checks


def ctx(cmdcl, cmd, params=b"", encapsulated=False, supported=SUPPORTED):
    return TriggerContext(
        cmdcl=cmdcl,
        cmd=cmd,
        params=bytes(params),
        encapsulated=encapsulated,
        supported_cmdcls=supported,
    )


class TestTableIIIDatabase:
    def test_fifteen_zero_days(self):
        assert len(ZERO_DAYS) == 15
        assert sorted(b.bug_id for b in ZERO_DAYS) == list(range(1, 16))

    def test_twelve_cves_assigned(self):
        assert sum(1 for b in ZERO_DAYS if b.cve) == 12

    def test_seven_bugs_on_cmdcl_0x01(self):
        assert len(CMDCL_0X01_BUG_IDS) == 7
        assert set(CMDCL_0X01_BUG_IDS) == {1, 2, 3, 4, 5, 12, 14}

    def test_root_causes_match_paper(self):
        implementation = {b.bug_id for b in ZERO_DAYS if b.root_cause is RootCause.IMPLEMENTATION}
        assert implementation == {6, 13}

    def test_durations_match_paper(self):
        expected = {7: 68.0, 8: 67.0, 9: 63.0, 10: 4.0, 11: 62.0, 14: 240.0, 15: 59.0}
        for bug_id, duration in expected.items():
            assert zero_day_by_id(bug_id).duration_s == duration

    def test_infinite_bugs_have_no_duration(self):
        for bug_id in (1, 2, 3, 4, 5, 6, 12, 13):
            assert zero_day_by_id(bug_id).duration_s is None
            assert zero_day_by_id(bug_id).duration_label == "Infinite"

    def test_duration_labels(self):
        assert zero_day_by_id(7).duration_label == "68 sec"
        assert zero_day_by_id(14).duration_label == "4 min"

    def test_unknown_bug_id_raises(self):
        with pytest.raises(KeyError):
            zero_day_by_id(99)

    def test_signatures_unique(self):
        """The tester's verified signature picks out each zero-day alone."""
        for bug in ZERO_DAYS:
            finding = VerifiedFinding(
                payload_hex="",
                cmdcl=bug.cmdcl,
                cmd=None,
                kind=next(k for k, e in _KIND_TO_EFFECT.items() if e is bug.effect),
                duration_s=bug.duration_s,
            )
            assert finding.match_table3() is bug


class TestMemoryTamperPredicates:
    """Bugs #01-#04 and #12: the NVM-write operation selector."""

    @pytest.mark.parametrize(
        "operation,bug_id",
        [(0x00, 12), (0x01, 1), (0x02, 2), (0x03, 3), (0x04, 4)],
    )
    def test_operation_selects_bug(self, operation, bug_id):
        probe = ctx(0x01, 0x0D, bytes([0x02, operation]))
        matched = [b for b in ZERO_DAYS if b.triggered_by(probe)]
        assert [b.bug_id for b in matched] == [bug_id]

    def test_requires_operation_parameter(self):
        assert not any(b.triggered_by(ctx(0x01, 0x0D, b"\x02")) for b in ZERO_DAYS)
        assert not any(b.triggered_by(ctx(0x01, 0x0D, b"")) for b in ZERO_DAYS)

    def test_unknown_operation_is_safe(self):
        assert not any(b.triggered_by(ctx(0x01, 0x0D, b"\x02\x09")) for b in ZERO_DAYS)


class TestHostBugPredicates:
    def test_bug5_any_app_update(self):
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x01, 0x02))] == [5]
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x01, 0x02, b"\x01\x02"))] == [5]

    def test_bug6_truncated_nonce_get(self):
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x9F, 0x01))] == [6]

    def test_bug6_valid_nonce_get_is_safe(self):
        assert not any(b.triggered_by(ctx(0x9F, 0x01, b"\x07")) for b in ZERO_DAYS)

    def test_bug13_truncated_test_node_set(self):
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x73, 0x04, b"\x01\x05"))] == [13]

    def test_bug13_complete_payload_is_safe(self):
        assert not any(b.triggered_by(ctx(0x73, 0x04, b"\x01\x05\x00\x0a")) for b in ZERO_DAYS)


class TestHangPredicates:
    def test_bug7_bare_commands(self):
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x5A, 0x01))] == [7]
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x5A, 0x42))] == [7]

    def test_bug7_needs_empty_params(self):
        assert not any(b.triggered_by(ctx(0x5A, 0x01, b"\x00")) for b in ZERO_DAYS)

    def test_bug8_bug11_parity_split(self):
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x59, 0x03, b"\x00\x01"))] == [8]
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x59, 0x05, b"\x00\x01"))] == [11]
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x59, 0x09, b"\x00\x01"))] == [8]
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x59, 0x0A, b"\x00\x01"))] == [11]

    def test_bug8_bug11_need_body(self):
        assert not any(b.triggered_by(ctx(0x59, 0x03, b"\x00")) for b in ZERO_DAYS)
        assert not any(b.triggered_by(ctx(0x59, 0x05)) for b in ZERO_DAYS)

    def test_bug9_bug15_split(self):
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x7A, 0x01))] == [9]
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x7A, 0x03, b"\x00\x01"))] == [15]

    def test_bug9_needs_empty_body(self):
        assert not any(b.triggered_by(ctx(0x7A, 0x01, b"\x00")) for b in ZERO_DAYS)

    def test_bug10_unsupported_class_lookup(self):
        probe = ctx(0x86, 0x13, b"\x01", supported=(0x20, 0x86))
        matched = [b for b in ZERO_DAYS if b.triggered_by(probe)]
        assert [b.bug_id for b in matched] == [10]

    def test_bug10_supported_class_is_safe(self):
        probe = ctx(0x86, 0x13, b"\x20", supported=(0x20, 0x86))
        assert not any(b.triggered_by(probe) for b in ZERO_DAYS)

    def test_bug14_oversized_node_mask(self):
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x01, 0x04, b"\xff"))] == [14]
        assert [b.bug_id for b in ZERO_DAYS if b.triggered_by(ctx(0x01, 0x04, b"\x1e"))] == [14]

    def test_bug14_legal_mask_is_safe(self):
        assert not any(b.triggered_by(ctx(0x01, 0x04, b"\x1d")) for b in ZERO_DAYS)


class TestPredicateDisjointness:
    def test_no_context_triggers_two_bugs(self):
        """Every trigger context maps to at most one zero-day."""
        probes = []
        for cmdcl in (0x01, 0x59, 0x5A, 0x73, 0x7A, 0x86, 0x9F):
            for cmd in range(0x00, 0x40):
                for params in (b"", b"\x00", b"\x00\x00", b"\xff\x04\x00"):
                    probes.append(ctx(cmdcl, cmd, params))
        for probe in probes:
            assert sum(b.triggered_by(probe) for b in ZERO_DAYS) <= 1

    def test_cmd_none_never_triggers(self):
        for bug in ZERO_DAYS:
            context = TriggerContext(bug.cmdcl, None, b"", False, SUPPORTED)
            assert not bug.triggered_by(context)


class TestMacQuirks:
    def well_formed(self):
        return ZWaveFrame(
            home_id=0xE7DE3F3D, src=0x0F, dst=1, payload=b"\x20\x02", sequence=15
        ).encode()

    def test_catalog_quirks_have_unique_ids(self):
        assert len(MAC_QUIRK_CATALOG) == len({q.quirk_id for q in MAC_QUIRK_CATALOG.values()})

    def test_device_assignment_counts_match_table5(self):
        counts = {d: len(q) for d, q in DEVICE_MAC_QUIRKS.items()}
        assert counts == {"D1": 1, "D2": 3, "D3": 0, "D4": 4, "D5": 0, "D6": 0, "D7": 0}

    def test_assigned_quirks_exist_in_catalog(self):
        for quirks in DEVICE_MAC_QUIRKS.values():
            assert all(q in MAC_QUIRK_CATALOG for q in quirks)

    def test_well_formed_frames_never_trip_any_quirk(self):
        raw = self.well_formed()
        for quirk in MAC_QUIRK_CATALOG.values():
            assert not quirk.predicate(raw), quirk.quirk_id

    def test_zcover_style_frames_never_trip_quirks(self):
        """ZCover mutates only the APL — no header shape can fire a quirk."""
        for seq in range(16):
            for payload in (b"\x00", b"\x5a\x01", b"\x01\x0d\x02\x03", b"\x86\x13\x00"):
                raw = ZWaveFrame(
                    home_id=0xCB51722D, src=0x0F, dst=1, payload=payload, sequence=seq
                ).encode()
                for quirk in MAC_QUIRK_CATALOG.values():
                    assert not quirk.predicate(raw), (quirk.quirk_id, seq, payload)

    def _with(self, mutate):
        raw = bytearray(self.well_formed())
        mutate(raw)
        raw[-1] = cs8(raw[:-1])
        return bytes(raw)

    def test_len_overrun_fires(self):
        raw = self._with(lambda r: r.__setitem__(7, 0xFF))
        assert MAC_QUIRK_CATALOG["LEN-OVERRUN"].predicate(raw)

    def test_len_underrun_fires(self):
        raw = self._with(lambda r: r.__setitem__(7, 0x05))
        assert MAC_QUIRK_CATALOG["LEN-UNDERRUN"].predicate(raw)

    def test_src_eq_dst_fires(self):
        raw = self._with(lambda r: r.__setitem__(4, r[8]))
        assert MAC_QUIRK_CATALOG["SRC-EQ-DST"].predicate(raw)

    def test_reserved_type_fires(self):
        raw = self._with(lambda r: r.__setitem__(5, (r[5] & 0xF0) | 0x05))
        assert MAC_QUIRK_CATALOG["RESERVED-TYPE"].predicate(raw)

    def test_routed_empty_fires(self):
        def mutate(r):
            r[5] |= 0x80
            r[7] = 10
        assert MAC_QUIRK_CATALOG["ROUTED-EMPTY"].predicate(self._with(mutate))

    def test_broadcast_ack_fires(self):
        raw = self._with(lambda r: r.__setitem__(8, 0xFF))
        assert MAC_QUIRK_CATALOG["BROADCAST-ACK"].predicate(raw)

    def test_null_dst_fires(self):
        raw = self._with(lambda r: r.__setitem__(8, 0x00))
        assert MAC_QUIRK_CATALOG["NULL-DST"].predicate(raw)
