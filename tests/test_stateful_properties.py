"""Hypothesis stateful testing: the NVM node table under arbitrary op mixes."""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    rule,
)
from hypothesis import strategies as st

from repro.errors import NodeMemoryError
from repro.simulator.memory import NodeRecord, NodeTable


class NodeTableMachine(RuleBasedStateMachine):
    """Random interleavings of sanctioned and raw (attack-path) operations.

    The model is a plain dict; the invariants assert the table never
    diverges from it, snapshots stay immutable, and diff() against the
    model snapshot is always empty.
    """

    def __init__(self):
        super().__init__()
        self.table = NodeTable(own_node_id=1)
        self.model = {}

    node_ids = st.integers(min_value=2, max_value=40)

    @rule(node_id=node_ids, wakeup=st.one_of(st.none(), st.integers(min_value=60, max_value=86400)))
    def sanctioned_add(self, node_id, wakeup):
        record = NodeRecord(node_id=node_id, wakeup_interval=wakeup)
        if node_id in self.model:
            with pytest.raises(NodeMemoryError):
                self.table.add(record)
        else:
            self.table.add(record)
            self.model[node_id] = record

    @rule(node_id=node_ids, basic=st.integers(min_value=1, max_value=4))
    def raw_write(self, node_id, basic):
        record = NodeRecord(node_id=node_id, basic=basic)
        self.table.raw_write(record)
        self.model[node_id] = record

    @rule(node_id=node_ids)
    def raw_delete(self, node_id):
        existed = self.table.raw_delete(node_id)
        assert existed == (node_id in self.model)
        self.model.pop(node_id, None)

    @rule(node_id=node_ids)
    def raw_clear_wakeup(self, node_id):
        record = self.model.get(node_id)
        cleared = self.table.raw_clear_wakeup(node_id)
        expected = record is not None and record.wakeup_interval is not None
        assert cleared == expected
        if cleared:
            from dataclasses import replace

            self.model[node_id] = replace(record, wakeup_interval=None)

    @rule()
    def snapshot_restore_roundtrip(self):
        snapshot = self.table.snapshot()
        self.table.raw_overwrite_all([NodeRecord(node_id=200, name="fake")])
        self.table.restore(snapshot)

    @invariant()
    def table_matches_model(self):
        assert set(self.table.node_ids()) == set(self.model)
        for node_id, record in self.model.items():
            assert self.table.get(node_id) == record

    @invariant()
    def diff_against_own_snapshot_is_empty(self):
        snapshot = self.table.snapshot()
        assert NodeTable.diff(snapshot, self.table.snapshot()) == []


NodeTableMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=30, deadline=None
)
TestNodeTableStateful = NodeTableMachine.TestCase
