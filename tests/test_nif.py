"""Tests for Node Information Frame encoding and parsing."""

import pytest
from hypothesis import given, strategies as st

from repro.errors import FrameError
from repro.simulator.memory import NodeRecord
from repro.zwave.application import ApplicationPayload
from repro.zwave.nif import (
    BasicDeviceClass,
    GenericDeviceClass,
    NodeInfo,
    encode_nif_report,
    encode_nif_request,
    is_nif_report,
    is_nif_request,
    parse_nif_report,
)


def controller_info(cmdcls=(0x20, 0x86)):
    return NodeInfo(
        basic=BasicDeviceClass.STATIC_CONTROLLER,
        generic=GenericDeviceClass.STATIC_CONTROLLER,
        specific=0x01,
        security=True,
        listed_cmdcls=tuple(cmdcls),
    )


class TestRequest:
    def test_request_shape(self):
        request = encode_nif_request()
        assert request.cmdcl == 0x01
        assert request.cmd == 0x01
        assert request.params == b""

    def test_request_predicate(self):
        assert is_nif_request(encode_nif_request())
        assert not is_nif_request(ApplicationPayload(0x01, 0x02))
        assert not is_nif_request(ApplicationPayload(0x20, 0x01))

    def test_report_is_not_request(self):
        assert not is_nif_request(encode_nif_report(controller_info()))


class TestReport:
    def test_roundtrip(self):
        info = controller_info((0x20, 0x25, 0x9F))
        parsed = parse_nif_report(encode_nif_report(info))
        assert parsed == info

    def test_report_predicate(self):
        assert is_nif_report(encode_nif_report(controller_info()))
        assert not is_nif_report(encode_nif_request())

    def test_parse_non_report_returns_none(self):
        assert parse_nif_report(ApplicationPayload(0x20, 0x02)) is None

    def test_capability_bits(self):
        info = NodeInfo(basic=0x03, generic=0x10, listening=True, routing=False, security=True)
        assert info.capability & 0x80
        assert not info.capability & 0x40
        assert info.capability & 0x10

    def test_is_controller(self):
        assert NodeRecord(node_id=5, basic=controller_info().basic).is_controller
        slave = NodeInfo(basic=BasicDeviceClass.SLAVE, generic=0x10)
        assert not NodeRecord(node_id=5, basic=slave.basic).is_controller

    def test_rejects_out_of_range_classes(self):
        with pytest.raises(FrameError):
            NodeInfo(basic=300, generic=0x10)
        with pytest.raises(FrameError):
            NodeInfo(basic=0x02, generic=0x10, listed_cmdcls=(999,))

    def test_empty_listing_roundtrip(self):
        info = NodeInfo(basic=0x02, generic=0x02, listed_cmdcls=())
        assert parse_nif_report(encode_nif_report(info)) == info

    @given(
        basic=st.integers(min_value=0, max_value=255),
        generic=st.integers(min_value=0, max_value=255),
        specific=st.integers(min_value=0, max_value=255),
        listening=st.booleans(),
        routing=st.booleans(),
        security=st.booleans(),
        cmdcls=st.lists(st.integers(min_value=0, max_value=255), max_size=30),
    )
    def test_roundtrip_property(
        self, basic, generic, specific, listening, routing, security, cmdcls
    ):
        info = NodeInfo(
            basic=basic,
            generic=generic,
            specific=specific,
            listening=listening,
            routing=routing,
            security=security,
            listed_cmdcls=tuple(cmdcls),
        )
        assert parse_nif_report(encode_nif_report(info)) == info
