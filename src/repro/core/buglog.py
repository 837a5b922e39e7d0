"""Bug logging: the ``Bug_Logs`` output of Algorithm 1.

Every bug-inducing packet is recorded with its timestamp, packet number and
observed effect, and can be persisted to / reloaded from a JSON-lines log
file for later replay by the packet tester — the paper's "Log Packet into
Bug_Logs ... Save Bug_Logs to file for future analysis".
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, List, Optional, Tuple, Union

from ..wire import dump_lines, load_lines
from .monitor import ObservedKind


@dataclass(frozen=True)
class BugRecord:
    """One bug-inducing packet as logged during fuzzing."""

    timestamp: float
    packet_no: int
    cmdcl: int
    cmd: Optional[int]
    payload_hex: str
    observed: str  # ObservedKind value

    @property
    def payload(self) -> bytes:
        return bytes.fromhex(self.payload_hex)

    @property
    def observed_kind(self) -> ObservedKind:
        return ObservedKind(self.observed)

    @classmethod
    def from_payload(
        cls,
        timestamp: float,
        packet_no: int,
        payload: bytes,
        observed: ObservedKind,
    ) -> "BugRecord":
        return cls(
            timestamp=timestamp,
            packet_no=packet_no,
            cmdcl=payload[0] if payload else -1,
            cmd=payload[1] if len(payload) >= 2 else None,
            payload_hex=payload.hex(),
            observed=observed.value,
        )


class BugLog:
    """An append-only collection of :class:`BugRecord` entries."""

    def __init__(self, records: Optional[List[BugRecord]] = None):
        self._records: List[BugRecord] = list(records or [])

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[BugRecord]:
        return iter(self._records)

    def __eq__(self, other: object) -> bool:
        # Value equality (not identity) so whole campaign results can be
        # compared across process boundaries and serialisation round trips.
        if not isinstance(other, BugLog):
            return NotImplemented
        return self._records == other._records

    def __repr__(self) -> str:
        return f"BugLog({len(self._records)} records)"

    def add(self, record: BugRecord) -> None:
        self._records.append(record)

    def records(self) -> List[BugRecord]:
        return list(self._records)

    def coarse_groups(self) -> List[Tuple[int, Optional[int], str]]:
        """Distinct (cmdcl, cmd, observed) triples, in first-seen order.

        The packet tester verifies one representative payload per group;
        final deduplication happens on verified signatures.
        """
        seen = {}
        for record in self._records:
            key = (record.cmdcl, record.cmd, record.observed)
            seen.setdefault(key, record)
        return list(seen)

    def first_record(self, cmdcl: int, cmd: Optional[int], observed: str) -> Optional[BugRecord]:
        for record in self._records:
            if (record.cmdcl, record.cmd, record.observed) == (cmdcl, cmd, observed):
                return record
        return None

    # -- persistence -------------------------------------------------------------

    def save(self, path: Union[str, Path]) -> None:
        """Write the log as JSON lines."""
        dump_lines(self._records, path)

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BugLog":
        """Reload a previously saved log.

        A malformed line raises :class:`~repro.wire.WireError` naming
        ``path:line``.
        """
        return cls(load_lines(BugRecord, path))
