"""Device simulator: virtual controllers, slaves, hosts and the testbed.

Substitutes for the paper's nine real Table II devices (see DESIGN.md);
the fifteen Table III zero-days are planted in the controller firmware as
trigger-predicate + effect models.  The inclusion ceremony (no security,
S0, S2) and mesh routing build the networks the examples attack;
exclusion, replication and OTA have no simulator ceremony, and the
session flow graphs (:data:`repro.core.session.FLOW_GRAPHS`) are their
only model.
"""

from .controller import ControllerStats, TriggeredEvent, VirtualController
from .host import HostKind, HostProgram, HostState
from .inclusion import (
    InclusionCeremony,
    InclusionResult,
    JoiningDevice,
    steal_s0_key_from_captures,
)
from .routing import MeshRepeater, RoutingHeader, make_routed_frame
from .transport import S0Messaging, S2Messaging, TransportStats
from .memory import MemoryChange, NodeRecord, NodeTable
from .slave import VirtualBinarySwitch, VirtualDoorLock, VirtualSlave
from .testbed import (
    CONTROLLER_IDS,
    DeviceProfile,
    LISTED_15,
    LISTED_17,
    LOCK_NODE_ID,
    PROFILES,
    SWITCH_NODE_ID,
    SystemUnderTest,
    build_sut,
    supported_cmdcls,
)
from .vulnerabilities import (
    DEVICE_MAC_QUIRKS,
    EffectType,
    MAC_QUIRK_CATALOG,
    MacQuirk,
    RootCause,
    TriggerContext,
    Vulnerability,
    ZERO_DAYS,
    zero_day_by_id,
)

__all__ = [
    "build_sut",
    "CONTROLLER_IDS",
    "InclusionCeremony",
    "InclusionResult",
    "JoiningDevice",
    "make_routed_frame",
    "MeshRepeater",
    "RoutingHeader",
    "S0Messaging",
    "S2Messaging",
    "steal_s0_key_from_captures",
    "TransportStats",
    "ControllerStats",
    "DEVICE_MAC_QUIRKS",
    "DeviceProfile",
    "EffectType",
    "HostKind",
    "HostProgram",
    "HostState",
    "LISTED_15",
    "LISTED_17",
    "LOCK_NODE_ID",
    "MAC_QUIRK_CATALOG",
    "MacQuirk",
    "MemoryChange",
    "NodeRecord",
    "NodeTable",
    "PROFILES",
    "RootCause",
    "supported_cmdcls",
    "SWITCH_NODE_ID",
    "SystemUnderTest",
    "TriggerContext",
    "TriggeredEvent",
    "VirtualBinarySwitch",
    "VirtualController",
    "VirtualDoorLock",
    "VirtualSlave",
    "Vulnerability",
    "zero_day_by_id",
    "ZERO_DAYS",
]
