"""Tests for the command-class data model."""

import pytest
from hypothesis import given, strategies as st

from repro.zwave.application import ApplicationPayload, Validity, validate_payload
from repro.zwave.cmdclass import (
    Cluster,
    Command,
    CommandClass,
    CommandKind,
    CONTROLLER_CLUSTERS,
    Direction,
    Parameter,
    ParamKind,
    make_get_set_report,
)
from repro.zwave.registry import SpecRegistry


class TestParameter:
    def test_enum_requires_values(self):
        with pytest.raises(ValueError):
            Parameter("mode", 0, kind=ParamKind.ENUM)

    def test_negative_position_rejected(self):
        with pytest.raises(ValueError):
            Parameter("x", -1)

    def test_bad_range_rejected(self):
        with pytest.raises(ValueError):
            Parameter("x", 0, kind=ParamKind.RANGE, low=10, high=5)

    def test_enum_legality(self):
        param = Parameter("mode", 0, kind=ParamKind.ENUM, enum_values=(0, 0xFF))
        assert param.is_legal(0)
        assert param.is_legal(0xFF)
        assert not param.is_legal(0x42)
        assert param.legal_values() == (0, 0xFF)

    def test_node_id_legality(self):
        param = Parameter("node", 0, kind=ParamKind.NODE_ID)
        assert param.is_legal(1)
        assert param.is_legal(232)
        assert not param.is_legal(0)
        assert not param.is_legal(233)

    def test_range_legality(self):
        param = Parameter("level", 0, kind=ParamKind.RANGE, low=0, high=9)
        assert param.is_legal(0) and param.is_legal(9)
        assert not param.is_legal(10)

    def test_opaque_accepts_all_bytes(self):
        param = Parameter("blob", 0)
        assert all(param.is_legal(v) for v in range(256))
        assert param.illegal_values() == ()

    def test_out_of_byte_range_is_illegal(self):
        param = Parameter("blob", 0)
        assert not param.is_legal(-1)
        assert not param.is_legal(256)

    @given(st.integers(min_value=0, max_value=255), st.integers(min_value=0, max_value=255))
    def test_legal_and_illegal_partition_byte_space(self, low, high):
        if low > high:
            low, high = high, low
        param = Parameter("x", 0, kind=ParamKind.RANGE, low=low, high=high)
        legal = set(param.legal_values())
        illegal = set(param.illegal_values())
        assert legal | illegal == set(range(256))
        assert not legal & illegal


class TestCommand:
    def test_duplicate_positions_rejected(self):
        with pytest.raises(ValueError):
            Command(1, "BAD", params=(Parameter("a", 0), Parameter("b", 0)))

    def test_descending_positions_rejected(self):
        with pytest.raises(ValueError):
            Command(1, "BAD", params=(Parameter("a", 1), Parameter("b", 0)))

    def test_id_range(self):
        with pytest.raises(ValueError):
            Command(256, "BAD")

    def test_min_payload_len(self):
        cmd = Command(1, "SET", params=(Parameter("v", 0),))
        registry = SpecRegistry([CommandClass(0x20, "X", commands=(cmd,))])
        short = validate_payload(ApplicationPayload(0x20, 0x01), registry)
        assert short.validity is Validity.SEMI_VALID
        full = ApplicationPayload(0x20, 0x01, b"\x00")
        assert len(full) == 3
        assert validate_payload(full, registry).validity is Validity.VALID

    def test_param_at(self):
        p0, p1 = Parameter("a", 0), Parameter("b", 1)
        cmd = Command(1, "X", params=(p0, p1))
        assert cmd.param_at(0) is p0
        assert cmd.param_at(1) is p1
        assert cmd.param_at(2) is None


class TestCommandClass:
    def test_duplicate_command_ids_rejected(self):
        with pytest.raises(ValueError):
            CommandClass(0x20, "X", commands=(Command(1, "A"), Command(1, "B")))

    def test_command_lookup(self):
        cls = CommandClass(0x20, "X", commands=(Command(1, "A"), Command(3, "B")))
        assert cls.command(1).name == "A"
        assert cls.command(2) is None
        assert cls.command_ids() == (1, 3)
        assert cls.command_count == 2

    def test_controller_relevance_by_cluster(self):
        classes = [CommandClass(0x20 + i, "X", cluster=cluster)
                   for i, cluster in enumerate((*CONTROLLER_CLUSTERS, Cluster.PROPRIETARY, Cluster.SLAVE_ONLY))]
        registry = SpecRegistry(classes)
        relevant = tuple(0x20 + i for i in range(len(CONTROLLER_CLUSTERS)))
        assert registry.controller_relevant_ids() == relevant
        assert registry.controller_relevant_ids(include_proprietary=True) == relevant + (0x20 + len(CONTROLLER_CLUSTERS),)

    def test_id_range(self):
        with pytest.raises(ValueError):
            CommandClass(300, "X")


class TestTrioBuilder:
    def test_shape(self):
        trio = make_get_set_report()
        assert [c.name for c in trio] == ["SET", "GET", "REPORT"]
        assert trio[0].kind is CommandKind.SET
        assert trio[1].kind is CommandKind.GET
        assert trio[2].kind is CommandKind.REPORT

    def test_directions(self):
        trio = make_get_set_report()
        assert trio[0].direction is Direction.CONTROLLING
        assert trio[2].direction is Direction.SUPPORTING

    def test_get_has_no_params(self):
        trio = make_get_set_report()
        assert trio[1].params == ()
        assert len(trio[0].params) == 1

    def test_custom_enum_value(self):
        trio = make_get_set_report(value_kind=ParamKind.ENUM, enum_values=(0, 1))
        assert trio[0].params[0].legal_values() == (0, 1)
