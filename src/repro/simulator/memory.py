"""Controller non-volatile memory: the node table the attacks corrupt.

The paper's headline attacks (Figures 8-11) all tamper with this structure:
modifying a paired lock's device class, inserting rogue controllers,
removing valid devices, and overwriting the whole device database.  The
fuzzer's memory oracle snapshots the table before each test packet and
diffs it afterwards, which is how the "Infinite"-duration bugs of Table III
are detected without the controller ever hanging.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional, Tuple

from ..errors import NodeMemoryError
from ..zwave.nif import BasicDeviceClass, GenericDeviceClass

#: Highest valid Z-Wave node identifier.
MAX_NODE_ID = 232


@dataclass(frozen=True)
class NodeRecord:
    """One paired device as the controller remembers it."""

    node_id: int
    basic: int = BasicDeviceClass.SLAVE
    generic: int = GenericDeviceClass.BINARY_SWITCH
    specific: int = 0x00
    listening: bool = True
    secure: bool = False
    granted_keys: int = 0x00
    wakeup_interval: Optional[int] = None
    name: str = ""

    def __post_init__(self) -> None:
        if not 1 <= self.node_id <= MAX_NODE_ID:
            raise NodeMemoryError(f"node id {self.node_id} outside 1..{MAX_NODE_ID}")

    @property
    def is_controller(self) -> bool:
        return self.basic in (
            BasicDeviceClass.CONTROLLER,
            BasicDeviceClass.STATIC_CONTROLLER,
        )


#: An immutable snapshot: node records keyed and ordered by node id.
Snapshot = Tuple[NodeRecord, ...]


@dataclass(frozen=True)
class MemoryChange:
    """One observed difference between two snapshots."""

    kind: str  # "added" | "removed" | "modified"
    node_id: int
    before: Optional[NodeRecord] = None
    after: Optional[NodeRecord] = None

    def describe(self) -> str:
        """One-line human description of the change."""
        if self.kind == "added":
            role = "controller" if self.after and self.after.is_controller else "device"
            return f"node #{self.node_id} ({role}) appeared in the node table"
        if self.kind == "removed":
            return f"node #{self.node_id} vanished from the node table"
        fields = []
        if self.before and self.after:
            for attr in (
                "basic",
                "generic",
                "specific",
                "listening",
                "secure",
                "granted_keys",
                "wakeup_interval",
            ):
                old, new = getattr(self.before, attr), getattr(self.after, attr)
                if old != new:
                    fields.append(f"{attr}: {old!r} -> {new!r}")
        return f"node #{self.node_id} changed ({', '.join(fields) or 'unknown fields'})"


class NodeTable:
    """The mutable NVM node database of one controller."""

    def __init__(self, own_node_id: int = 1):
        self._own_node_id = own_node_id
        self._records: Dict[int, NodeRecord] = {}
        # Monotonic mutation counter for the memory oracle's fast path:
        # it ticks on *every* content change, harness-side restores
        # included, so "version unchanged" proves the table is untouched.
        self._version = 0

    # -- normal (firmware-sanctioned) operations ------------------------------

    @property
    def version(self) -> int:
        """Counter bumped by every content change, restores included."""
        return self._version

    def __len__(self) -> int:
        return len(self._records)

    def __contains__(self, node_id: int) -> bool:
        return node_id in self._records

    def node_ids(self) -> Tuple[int, ...]:
        return tuple(sorted(self._records))

    def get(self, node_id: int) -> Optional[NodeRecord]:
        return self._records.get(node_id)

    def add(self, record: NodeRecord) -> None:
        """Pair a new device; refuses duplicates and the controller's own id."""
        if record.node_id == self._own_node_id:
            raise NodeMemoryError("cannot pair a device under the controller's own id")
        if record.node_id in self._records:
            raise NodeMemoryError(f"node {record.node_id} already paired")
        self._records[record.node_id] = record
        self._version += 1

    def update(self, node_id: int, **changes) -> NodeRecord:
        """Modify fields of an existing record."""
        record = self._records.get(node_id)
        if record is None:
            raise NodeMemoryError(f"node {node_id} is not paired")
        updated = replace(record, **changes)
        self._records[node_id] = updated
        self._version += 1
        return updated

    # -- raw operations the vulnerable CMDCL 0x01 handler performs --------------
    #
    # These bypass the sanity checks above, mirroring the missing validation
    # the paper found: the proprietary NVM-write command manipulates records
    # directly.

    def raw_write(self, record: NodeRecord) -> None:
        """Insert or overwrite a record with no duplicate/identity checks."""
        self._records[record.node_id] = record
        self._version += 1

    def raw_delete(self, node_id: int) -> bool:
        """Delete a record if present; never raises."""
        existed = self._records.pop(node_id, None) is not None
        if existed:
            self._version += 1
        return existed

    def raw_overwrite_all(self, records: List[NodeRecord]) -> None:
        """Replace the entire table (the Figure 11 database overwrite)."""
        self._records = {r.node_id: r for r in records}
        self._version += 1

    def raw_clear_wakeup(self, node_id: int) -> bool:
        """Blank a node's wake-up interval (bug #12)."""
        record = self._records.get(node_id)
        if record is None or record.wakeup_interval is None:
            return False
        self._records[node_id] = replace(record, wakeup_interval=None)
        self._version += 1
        return True

    # -- snapshots and diffing (the memory oracle) --------------------------------

    def snapshot(self) -> Snapshot:
        """Immutable copy of the current table, ordered by node id."""
        return tuple(self._records[i] for i in sorted(self._records))

    def restore(self, snapshot: Snapshot) -> None:
        """Reset the table to *snapshot* (harness-side repair between tests)."""
        self._records = {r.node_id: r for r in snapshot}
        self._version += 1

    @staticmethod
    def diff(before: Snapshot, after: Snapshot) -> List[MemoryChange]:
        """Structured differences between two snapshots."""
        before_map = {r.node_id: r for r in before}
        after_map = {r.node_id: r for r in after}
        changes: List[MemoryChange] = []
        for node_id in sorted(set(before_map) | set(after_map)):
            old = before_map.get(node_id)
            new = after_map.get(node_id)
            if old is None and new is not None:
                changes.append(MemoryChange("added", node_id, None, new))
            elif old is not None and new is None:
                changes.append(MemoryChange("removed", node_id, old, None))
            elif old != new:
                changes.append(MemoryChange("modified", node_id, old, new))
        return changes
