"""Tests for the application-layer payload model and validator."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import FrameError
from repro.zwave.application import (
    ApplicationPayload,
    POSITION_CMD,
    POSITION_CMDCL,
    POSITION_FIRST_PARAM,
    Validity,
    build_valid_payload,
    validate_payload,
)


class TestPayloadCodec:
    def test_encode_full(self):
        payload = ApplicationPayload(0x20, 0x01, b"\xff")
        assert payload.encode() == b"\x20\x01\xff"

    def test_encode_class_only(self):
        assert ApplicationPayload(0x5A).encode() == b"\x5a"

    def test_decode_full(self):
        payload = ApplicationPayload.decode(b"\x62\x01\xff\x00")
        assert (payload.cmdcl, payload.cmd, payload.params) == (0x62, 0x01, b"\xff\x00")

    def test_decode_class_only(self):
        payload = ApplicationPayload.decode(b"\x86")
        assert payload.cmd is None

    def test_decode_empty_raises(self):
        with pytest.raises(FrameError):
            ApplicationPayload.decode(b"")

    def test_len(self):
        assert len(ApplicationPayload(0x20)) == 1
        assert len(ApplicationPayload(0x20, 0x01)) == 2
        assert len(ApplicationPayload(0x20, 0x01, b"\x00\x01")) == 4

    def test_rejects_out_of_range(self):
        with pytest.raises(FrameError):
            ApplicationPayload(256)
        with pytest.raises(FrameError):
            ApplicationPayload(0x20, 300)

    def test_rejects_oversized(self):
        with pytest.raises(FrameError):
            ApplicationPayload(0x20, 0x01, b"\x00" * 64)

    @given(
        cmdcl=st.integers(min_value=0, max_value=255),
        cmd=st.one_of(st.none(), st.integers(min_value=0, max_value=255)),
        params=st.binary(max_size=30),
    )
    def test_roundtrip_property(self, cmdcl, cmd, params):
        if cmd is None:
            params = b""
        payload = ApplicationPayload(cmdcl, cmd, params)
        assert ApplicationPayload.decode(payload.encode()) == payload


class TestPositionalAccess:
    def test_field_at_positions(self):
        raw = ApplicationPayload(0x62, 0x01, b"\xff\x02").encode()
        assert raw[POSITION_CMDCL] == 0x62
        assert raw[POSITION_CMD] == 0x01
        assert raw[POSITION_FIRST_PARAM] == 0xFF
        assert raw[POSITION_FIRST_PARAM + 1] == 0x02
        assert len(raw) == POSITION_FIRST_PARAM + 2

    def test_replace_cmdcl(self):
        payload = ApplicationPayload(0x20, 0x01, b"\xff")
        assert payload.replace_at(POSITION_CMDCL, 0x25).cmdcl == 0x25

    def test_replace_cmd(self):
        payload = ApplicationPayload(0x20, 0x01, b"\xff")
        assert payload.replace_at(POSITION_CMD, 0x06).cmd == 0x06

    def test_replace_param(self):
        payload = ApplicationPayload(0x20, 0x01, b"\xff")
        assert payload.replace_at(POSITION_FIRST_PARAM, 0x00).params == b"\x00"

    def test_replace_is_copy(self):
        payload = ApplicationPayload(0x20, 0x01, b"\xff")
        payload.replace_at(POSITION_FIRST_PARAM, 0x00)
        assert payload.params == b"\xff"

    def test_replace_missing_param_raises(self):
        with pytest.raises(FrameError):
            ApplicationPayload(0x20, 0x01).replace_at(POSITION_FIRST_PARAM, 0)

    def test_replace_bad_value_raises(self):
        with pytest.raises(FrameError):
            ApplicationPayload(0x20, 0x01, b"\xff").replace_at(0, 256)

    def test_append_param(self):
        payload = ApplicationPayload(0x20, 0x01, b"\xff").append_param(0x33)
        assert payload.params == b"\xff\x33"

    def test_append_without_cmd_raises(self):
        with pytest.raises(FrameError):
            ApplicationPayload(0x20).append_param(1)

    def test_truncate(self):
        payload = ApplicationPayload(0x62, 0x01, b"\x01\x02\x03")
        assert payload.truncate_params(1).params == b"\x01"
        assert payload.truncate_params(0).params == b""
        assert payload.truncate_params(9).params == b"\x01\x02\x03"

    def test_positions_enumeration(self):
        payload = ApplicationPayload(0x62, 0x01, b"\x01\x02")
        assert len(payload) == 4
        assert [payload.replace_at(p, 0xAA).encode()[p] for p in range(len(payload))] == [0xAA] * 4
        assert len(ApplicationPayload(0x62)) == 1


class TestValidation:
    def test_valid_payload(self, full_registry):
        payload = ApplicationPayload(0x20, 0x01, b"\x42")  # BASIC_SET value
        result = validate_payload(payload, full_registry)
        assert result.validity is Validity.VALID

    def test_unknown_class_invalid(self, public_registry):
        payload = ApplicationPayload(0x01, 0x0D, b"\x02\x03")
        result = validate_payload(payload, public_registry)
        assert result.validity is Validity.INVALID

    def test_proprietary_valid_against_full_registry(self, full_registry):
        payload = ApplicationPayload(0x01, 0x05)
        result = validate_payload(payload, full_registry)
        assert result.validity is Validity.VALID

    def test_missing_command_semi_valid(self, full_registry):
        result = validate_payload(ApplicationPayload(0x20), full_registry)
        assert result.validity is Validity.SEMI_VALID

    def test_undefined_command_semi_valid(self, full_registry):
        result = validate_payload(ApplicationPayload(0x20, 0x99), full_registry)
        assert result.validity is Validity.SEMI_VALID
        assert "not defined" in result.reasons[0]

    def test_missing_parameter_semi_valid(self, full_registry):
        result = validate_payload(ApplicationPayload(0x20, 0x01), full_registry)
        assert result.validity is Validity.SEMI_VALID
        assert any("missing parameter" in r for r in result.reasons)

    def test_illegal_parameter_semi_valid(self, full_registry):
        # SWITCH_BINARY_SET only accepts 0x00 / 0xFF.
        result = validate_payload(ApplicationPayload(0x25, 0x01, b"\x55"), full_registry)
        assert result.validity is Validity.SEMI_VALID

    def test_trailing_bytes_semi_valid(self, full_registry):
        result = validate_payload(
            ApplicationPayload(0x20, 0x02, b"\x00\x00"), full_registry
        )
        assert result.validity is Validity.SEMI_VALID
        assert any("trailing" in r for r in result.reasons)


class TestBuildValidPayload:
    def test_defaults_use_first_legal_values(self, full_registry):
        payload = build_valid_payload(full_registry, 0x25, 0x01)
        assert payload.params == b"\x00"  # first legal enum value

    def test_explicit_params(self, full_registry):
        payload = build_valid_payload(full_registry, 0x20, 0x01, [0x42])
        assert payload.params == b"\x42"

    def test_built_payload_validates(self, full_registry):
        for cls in full_registry:
            for cmd in cls.commands:
                payload = build_valid_payload(full_registry, cls.id, cmd.id)
                result = validate_payload(payload, full_registry)
                assert result.validity is Validity.VALID, (cls.name, cmd.name)
