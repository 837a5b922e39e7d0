"""Data model for Z-Wave application-layer command classes.

The Z-Wave application layer is hierarchical (Figure 6 of the paper): a
command class (CMDCL, position 0) groups commands (CMD, position 1) which
carry parameters (PARAM, positions 2..n).  This module defines the immutable
value objects that the specification registry (:mod:`repro.zwave.spec_data`)
instantiates and that the position-sensitive mutator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Tuple


class Cluster(Enum):
    """Functional clusters used to decide controller relevance.

    Section III-C1: "A Z-Wave controller is expected to support CMDCLs
    related to application functionality, transport encapsulation,
    management, and networking."  Classes outside those clusters (sensors,
    actuators, AV gear, ...) are slave-side only.
    """

    APPLICATION = "application"
    TRANSPORT_ENCAPSULATION = "transport_encapsulation"
    MANAGEMENT = "management"
    NETWORK = "network"
    SLAVE_ONLY = "slave_only"
    PROPRIETARY = "proprietary"


#: Clusters whose classes a controller is expected to implement.
CONTROLLER_CLUSTERS = frozenset(
    {
        Cluster.APPLICATION,
        Cluster.TRANSPORT_ENCAPSULATION,
        Cluster.MANAGEMENT,
        Cluster.NETWORK,
    }
)


class Direction(Enum):
    """Whether a command is sent by a controller or by a slave.

    The specification marks each command as *controlling* (sent by a
    controller) or *supporting* (sent by a slave in response).
    """

    CONTROLLING = "controlling"
    SUPPORTING = "supporting"
    BOTH = "both"


class CommandKind(Enum):
    """Coarse command categories used by semantic mutation."""

    GET = "get"
    SET = "set"
    REPORT = "report"
    NOTIFICATION = "notification"
    OTHER = "other"


class ParamKind(Enum):
    """Value domains a parameter byte can take."""

    ENUM = "enum"  # one of an explicit set of legal values
    RANGE = "range"  # an inclusive [lo, hi] byte range
    NODE_ID = "node_id"  # a node identifier (1..232 legal)
    BITMASK = "bitmask"  # any bit combination legal
    OPAQUE = "opaque"  # free-form byte


@dataclass(frozen=True)
class Parameter:
    """One application-layer parameter byte at a fixed position.

    ``position`` is the PARAM index (0-based: PARAM1 has position 0) which
    maps to frame position ``2 + position`` in the hierarchy of Figure 6.
    """

    name: str
    position: int
    kind: ParamKind = ParamKind.OPAQUE
    enum_values: Tuple[int, ...] = ()
    low: int = 0x00
    high: int = 0xFF

    def __post_init__(self) -> None:
        if self.position < 0:
            raise ValueError("parameter position must be non-negative")
        if self.kind is ParamKind.ENUM and not self.enum_values:
            raise ValueError(f"enum parameter {self.name!r} needs enum_values")
        if not 0 <= self.low <= self.high <= 0xFF:
            raise ValueError(f"invalid range for parameter {self.name!r}")

    def legal_values(self) -> Tuple[int, ...]:
        """Return the tuple of legal byte values for this parameter.

        Memoised on the (immutable) instance: valid-payload building and
        the controller's GET responder both call this per frame, and the
        NODE_ID/OPAQUE domains are hundreds of values wide.
        """
        values = self.__dict__.get("_legal")
        if values is None:
            if self.kind is ParamKind.ENUM:
                values = self.enum_values
            elif self.kind is ParamKind.NODE_ID:
                values = tuple(range(1, 233))
            elif self.kind is ParamKind.RANGE:
                values = tuple(range(self.low, self.high + 1))
            else:
                values = tuple(range(0x00, 0x100))
            object.__setattr__(self, "_legal", values)
        return values

    def is_legal(self, value: int) -> bool:
        """Return ``True`` when *value* is a legal byte for this parameter."""
        if not 0 <= value <= 0xFF:
            return False
        if self.kind is ParamKind.ENUM:
            return value in self.enum_values
        if self.kind is ParamKind.NODE_ID:
            return 1 <= value <= 232
        if self.kind is ParamKind.RANGE:
            return self.low <= value <= self.high
        return True

    def illegal_values(self) -> Tuple[int, ...]:
        """Return byte values outside the legal domain (may be empty)."""
        legal = set(self.legal_values())
        return tuple(v for v in range(0x100) if v not in legal)


@dataclass(frozen=True)
class Command:
    """One command (position 1 of the hierarchy) within a command class."""

    id: int
    name: str
    direction: Direction = Direction.BOTH
    kind: CommandKind = CommandKind.OTHER
    params: Tuple[Parameter, ...] = ()

    def __post_init__(self) -> None:
        if not 0 <= self.id <= 0xFF:
            raise ValueError(f"command id {self.id:#x} out of byte range")
        positions = [p.position for p in self.params]
        if positions != sorted(positions) or len(set(positions)) != len(positions):
            raise ValueError(
                f"command {self.name!r} parameters must have unique ascending positions"
            )

    def param_at(self, position: int) -> Optional[Parameter]:
        """Return the parameter occupying PARAM index *position*, if any."""
        for param in self.params:
            if param.position == position:
                return param
        return None


@dataclass(frozen=True)
class CommandClass:
    """One command class (position 0 of the hierarchy).

    ``in_public_spec`` is ``False`` for the proprietary classes the paper
    uncovered through validation testing (0x01 and 0x02), which are absent
    from the official Z-Wave Alliance specification.
    """

    id: int
    name: str
    version: int = 1
    cluster: Cluster = Cluster.SLAVE_ONLY
    commands: Tuple[Command, ...] = ()
    in_public_spec: bool = True
    secure_only: bool = False
    _by_id: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.id <= 0xFF:
            raise ValueError(f"command class id {self.id:#x} out of byte range")
        ids = [c.id for c in self.commands]
        if len(set(ids)) != len(ids):
            raise ValueError(f"duplicate command ids in class {self.name!r}")
        self._by_id.update({c.id: c for c in self.commands})

    @property
    def command_count(self) -> int:
        """Number of commands this class defines (the Figure 5 metric)."""
        return len(self.commands)

    def command(self, cmd_id: int) -> Optional[Command]:
        """Return the command with identifier *cmd_id*, or ``None``."""
        return self._by_id.get(cmd_id)

    def command_ids(self) -> Tuple[int, ...]:
        """Return all command identifiers in ascending order."""
        return tuple(sorted(self._by_id))


def make_get_set_report(
    *,
    set_id: int = 0x01,
    get_id: int = 0x02,
    report_id: int = 0x03,
    value_param: str = "value",
    value_kind: ParamKind = ParamKind.OPAQUE,
    enum_values: Tuple[int, ...] = (),
    low: int = 0x00,
    high: int = 0xFF,
) -> Tuple[Command, ...]:
    """Build the canonical SET/GET/REPORT command trio most classes use.

    The specification's commonest pattern is ``Set`` (controlling, one value
    parameter), ``Get`` (controlling, no parameters) and ``Report``
    (supporting, one value parameter).
    """
    value = Parameter(
        value_param, 0, kind=value_kind, enum_values=enum_values, low=low, high=high
    )
    return (
        Command(set_id, "SET", Direction.CONTROLLING, CommandKind.SET, (value,)),
        Command(get_id, "GET", Direction.CONTROLLING, CommandKind.GET, ()),
        Command(report_id, "REPORT", Direction.SUPPORTING, CommandKind.REPORT, (value,)),
    )
