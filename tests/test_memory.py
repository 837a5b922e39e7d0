"""Tests for the controller NVM node table and the memory oracle diffs."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import NodeMemoryError
from repro.simulator.memory import NodeRecord, NodeTable


def record(node_id=2, **kwargs):
    return NodeRecord(node_id=node_id, **kwargs)


class TestNodeRecord:
    def test_node_id_bounds(self):
        with pytest.raises(NodeMemoryError):
            NodeRecord(node_id=0)
        with pytest.raises(NodeMemoryError):
            NodeRecord(node_id=233)

    def test_is_controller(self):
        assert NodeRecord(node_id=5, basic=0x02).is_controller
        assert NodeRecord(node_id=5, basic=0x01).is_controller
        assert not NodeRecord(node_id=5, basic=0x03).is_controller


class TestSanctionedOperations:
    def test_add_and_get(self):
        table = NodeTable()
        table.add(record(2, name="lock"))
        assert table.get(2).name == "lock"
        assert 2 in table
        assert len(table) == 1

    def test_add_own_id_rejected(self):
        table = NodeTable(own_node_id=1)
        with pytest.raises(NodeMemoryError):
            table.add(record(1))

    def test_add_duplicate_rejected(self):
        table = NodeTable()
        table.add(record(2))
        with pytest.raises(NodeMemoryError):
            table.add(record(2))

    def test_remove(self):
        table = NodeTable()
        table.add(record(2))
        assert table.raw_delete(2)
        assert 2 not in table

    def test_remove_missing_rejected(self):
        table = NodeTable()
        assert not table.raw_delete(9)
        assert table.version == 0
        with pytest.raises(NodeMemoryError):
            table.update(9, name="x")

    def test_update(self):
        table = NodeTable()
        table.add(record(2, wakeup_interval=3600))
        updated = table.update(2, wakeup_interval=60)
        assert updated.wakeup_interval == 60
        assert table.get(2).wakeup_interval == 60

    def test_update_missing_rejected(self):
        with pytest.raises(NodeMemoryError):
            NodeTable().update(9, name="x")

    def test_node_ids_sorted(self):
        table = NodeTable()
        for nid in (7, 2, 5):
            table.add(record(nid))
        assert table.node_ids() == (2, 5, 7)

    def test_write_count_tracks_mutations(self):
        table = NodeTable()
        table.add(record(2))
        table.update(2, name="x")
        table.raw_delete(2)
        assert table.version == 3


class TestRawOperations:
    """The unchecked paths the vulnerable CMDCL 0x01 handler uses."""

    def test_raw_write_overwrites_silently(self):
        table = NodeTable()
        table.add(record(2, name="lock"))
        table.raw_write(record(2, name="rogue", basic=0x02))
        assert table.get(2).name == "rogue"

    def test_raw_delete_never_raises(self):
        table = NodeTable()
        assert not table.raw_delete(9)
        table.add(record(2))
        assert table.raw_delete(2)

    def test_raw_overwrite_all(self):
        table = NodeTable()
        table.add(record(2))
        table.raw_overwrite_all([record(10), record(200)])
        assert table.node_ids() == (10, 200)

    def test_raw_clear_wakeup(self):
        table = NodeTable()
        table.add(record(2, wakeup_interval=3600))
        assert table.raw_clear_wakeup(2)
        assert table.get(2).wakeup_interval is None
        assert not table.raw_clear_wakeup(2)  # already cleared

    def test_raw_clear_wakeup_missing_node(self):
        assert not NodeTable().raw_clear_wakeup(5)


class TestSnapshots:
    def test_snapshot_is_immutable_view(self):
        table = NodeTable()
        table.add(record(2))
        snap = table.snapshot()
        table.raw_delete(2)
        assert len(snap) == 1

    def test_restore(self):
        table = NodeTable()
        table.add(record(2, name="lock"))
        golden = table.snapshot()
        table.raw_overwrite_all([record(99)])
        table.restore(golden)
        assert table.node_ids() == (2,)
        assert table.get(2).name == "lock"

    def test_diff_added(self):
        before = ()
        after = (record(10, basic=0x02),)
        changes = NodeTable.diff(before, after)
        assert len(changes) == 1
        assert changes[0].kind == "added"
        assert "controller" in changes[0].describe()

    def test_diff_removed(self):
        changes = NodeTable.diff((record(2),), ())
        assert changes[0].kind == "removed"
        assert "vanished" in changes[0].describe()

    def test_diff_modified(self):
        changes = NodeTable.diff(
            (record(2, basic=0x03),), (record(2, basic=0x04),)
        )
        assert changes[0].kind == "modified"
        assert "basic" in changes[0].describe()

    def test_diff_identical_is_empty(self):
        snap = (record(2), record(3))
        assert NodeTable.diff(snap, snap) == []

    def test_diff_mixed(self):
        before = (record(2), record(3))
        after = (record(3, name="renamed"), record(10))
        kinds = {c.kind for c in NodeTable.diff(before, after)}
        assert kinds == {"added", "removed", "modified"}

    @given(
        ids_a=st.sets(st.integers(min_value=2, max_value=20), max_size=6),
        ids_b=st.sets(st.integers(min_value=2, max_value=20), max_size=6),
    )
    @settings(max_examples=40)
    def test_diff_partition_property(self, ids_a, ids_b):
        before = tuple(record(i) for i in sorted(ids_a))
        after = tuple(record(i) for i in sorted(ids_b))
        changes = NodeTable.diff(before, after)
        added = {c.node_id for c in changes if c.kind == "added"}
        removed = {c.node_id for c in changes if c.kind == "removed"}
        assert added == ids_b - ids_a
        assert removed == ids_a - ids_b

    @given(ids=st.sets(st.integers(min_value=2, max_value=50), max_size=10))
    @settings(max_examples=30)
    def test_restore_inverts_any_corruption(self, ids):
        table = NodeTable()
        for i in sorted(ids):
            table.add(record(i))
        golden = table.snapshot()
        table.raw_overwrite_all([record(200, name="fake")])
        table.restore(golden)
        assert table.snapshot() == golden
