"""Z-Wave protocol substrate: frames, checksums, application layer, spec.

This package implements the protocol machinery the paper's Figure 1 and
Section II-A describe — everything ZCover and the simulated devices need to
speak Z-Wave without real hardware.
"""

from .application import (
    ApplicationPayload,
    Validity,
    ValidationResult,
    build_valid_payload,
    validate_payload,
)
from .checksum import crc16, cs8
from .cmdclass import (
    Cluster,
    Command,
    CommandClass,
    CommandKind,
    Direction,
    Parameter,
    ParamKind,
)
from .constants import (
    BROADCAST_NODE_ID,
    CONTROLLER_NODE_ID,
    MAX_APL_PAYLOAD_SIZE,
    MAX_MAC_FRAME_SIZE,
    HeaderType,
    Region,
    TransportMode,
)
from .frame import ZWaveFrame, make_nop
from .nif import (
    BasicDeviceClass,
    GenericDeviceClass,
    NodeInfo,
    encode_nif_report,
    encode_nif_request,
    is_nif_report,
    is_nif_request,
    parse_nif_report,
)
from .registry import (
    SpecRegistry,
    load_full_registry,
    load_public_registry,
)

__all__ = [
    "ApplicationPayload",
    "BasicDeviceClass",
    "BROADCAST_NODE_ID",
    "build_valid_payload",
    "Cluster",
    "Command",
    "CommandClass",
    "CommandKind",
    "CONTROLLER_NODE_ID",
    "crc16",
    "cs8",
    "Direction",
    "encode_nif_report",
    "encode_nif_request",
    "GenericDeviceClass",
    "HeaderType",
    "is_nif_report",
    "is_nif_request",
    "load_full_registry",
    "load_public_registry",
    "make_nop",
    "MAX_APL_PAYLOAD_SIZE",
    "MAX_MAC_FRAME_SIZE",
    "NodeInfo",
    "Parameter",
    "ParamKind",
    "parse_nif_report",
    "Region",
    "SpecRegistry",
    "TransportMode",
    "Validity",
    "ValidationResult",
    "validate_payload",
    "ZWaveFrame",
]
