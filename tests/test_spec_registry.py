"""Tests for the specification registry — the paper's ground numbers."""

import pytest

from repro.errors import UnknownCommandClassError, UnknownCommandError
from repro.zwave.cmdclass import Cluster
from repro.zwave.registry import SpecRegistry
from repro.zwave.spec_data import PUBLIC_SPEC_CLASS_COUNT, build_proprietary_classes


class TestPaperNumbers:
    """The exact counts Sections III-B/III-C and Table IV rely on."""

    def test_public_spec_lists_122_classes(self, public_registry):
        assert len(public_registry) == PUBLIC_SPEC_CLASS_COUNT == 122

    def test_full_registry_adds_two_proprietary(self, full_registry, public_registry):
        assert len(full_registry) == len(public_registry) + 2

    def test_proprietary_ids_are_0x01_and_0x02(self):
        assert tuple(sorted(c.id for c in build_proprietary_classes())) == (0x01, 0x02)

    def test_proprietary_absent_from_public_spec(self, public_registry):
        assert 0x01 not in public_registry
        assert 0x02 not in public_registry

    def test_proprietary_flagged_in_full_registry(self, full_registry):
        assert not full_registry.require(0x01).in_public_spec
        assert not full_registry.require(0x02).in_public_spec

    def test_controller_relevant_spec_classes_are_43(self, public_registry):
        # 43 spec classes + 2 proprietary = the 45 CMDCLs of Table V.
        assert len(public_registry.controller_relevant_ids()) == 43

    def test_controller_relevant_with_proprietary_is_45(self, full_registry):
        ids = full_registry.controller_relevant_ids(include_proprietary=True)
        assert len(ids) == 45

    def test_figure5_distribution(self, full_registry):
        from repro.analysis.report import FIGURE5_CLASS_IDS

        counts = [
            count
            for _, count in full_registry.command_distribution(FIGURE5_CLASS_IDS)
        ]
        assert counts == [23, 15, 11, 10, 8, 7, 6, 6, 5, 4, 3, 2, 2, 1, 1, 0]

    def test_proprietary_0x01_is_network_management(self, full_registry):
        cls = full_registry.require(0x01)
        assert cls.cluster is Cluster.PROPRIETARY
        assert cls.command(0x0D) is not None  # the NVM write of bugs 1-4/12
        assert cls.command_count == 20


class TestTableIIIBugSchemas:
    """Every Table III (CMDCL, CMD) pair must exist in the knowledge base."""

    @pytest.mark.parametrize(
        "cmdcl,cmd",
        [
            (0x01, 0x0D), (0x01, 0x02), (0x01, 0x04),
            (0x9F, 0x01), (0x5A, 0x01), (0x59, 0x03), (0x59, 0x05),
            (0x7A, 0x01), (0x7A, 0x03), (0x86, 0x13), (0x73, 0x04),
        ],
    )
    def test_bug_commands_defined(self, full_registry, cmdcl, cmd):
        assert full_registry.command(cmdcl, cmd) is not None


class TestLookups:
    def test_require_unknown_raises(self, public_registry):
        with pytest.raises(UnknownCommandClassError):
            public_registry.require(0x01)

    def test_command_unknown_raises(self, full_registry):
        with pytest.raises(UnknownCommandError):
            full_registry.command(0x20, 0x99)

    def test_by_name(self, full_registry):
        by_name = {c.name: c for c in full_registry}
        assert len(by_name) == len(full_registry)
        assert full_registry.require(by_name["BASIC"].id).id == 0x20
        assert "NOPE" not in by_name

    def test_contains_and_iter_sorted(self, public_registry):
        assert 0x20 in public_registry
        ids = [c.id for c in public_registry]
        assert ids == sorted(ids)

    def test_class_ids_sorted(self, public_registry):
        ids = public_registry.controller_relevant_ids(include_proprietary=True)
        assert ids == tuple(sorted(ids))

    def test_duplicate_rejected(self, public_registry):
        cls = public_registry.require(0x20)
        with pytest.raises(ValueError):
            SpecRegistry([cls, cls])

    def test_cluster_query(self, public_registry):
        slave = [c for c in public_registry if c.cluster is Cluster.SLAVE_ONLY]
        assert all(c.cluster is Cluster.SLAVE_ONLY for c in slave)
        assert len(slave) == 79


class TestPrioritization:
    def test_orders_by_command_count_desc(self, full_registry):
        prio = full_registry.prioritize([0x20, 0x34, 0x5A])
        assert prio == (0x34, 0x20, 0x5A)

    def test_tie_broken_by_id(self, full_registry):
        # 0x59 and 0x62 both define 6 commands.
        prio = full_registry.prioritize([0x62, 0x59])
        assert prio == (0x59, 0x62)

    def test_testbed_queue_puts_bug_classes_early(self, full_registry, public_registry):
        candidates = list(public_registry.controller_relevant_ids()) + [0x01, 0x02]
        prio = full_registry.prioritize(candidates)
        assert prio[0] == 0x34
        assert prio[1] == 0x01  # the proprietary class with 7 zero-days
        assert prio.index(0x9F) < 10
        assert prio.index(0x7A) < 10
        assert prio.index(0x59) < 10

    def test_ids_missing_from_registry_go_last(self, public_registry):
        prio = public_registry.prioritize([0x01, 0x20])
        assert prio == (0x20, 0x01)

    def test_command_count_lookup(self, full_registry):
        assert full_registry.command_count(0x34) == 23
        assert full_registry.command_count(0x24) == 0
