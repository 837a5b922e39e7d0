"""Machine-readable Z-Wave specification data.

This module plays the role of the two sources the paper's discovery phase
parses (Section III-C1): the Z-Wave Alliance specification release (which
"lists 122 CMDCLs") and the public ``ZWave_custom_cmd_classes.xml`` command
class definition file.  It defines:

* all 122 public command classes, each with an identifier, a functional
  cluster, and its command list (detailed parameter schemas for the
  controller-relevant classes the evaluation exercises, canonical
  SET/GET/REPORT trios elsewhere), and
* the two proprietary classes (0x01 and 0x02) that are *absent* from the
  public specification and that ZCover uncovers through systematic
  validation testing.

The per-class command counts of the classes shown in Figure 5 reproduce the
paper's distribution (23, 15, 11, 10, 8, 7, 6, 6, 5, 4, 3, 2, 2, 1, 1, 0).
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from .cmdclass import (
    Cluster,
    Command,
    CommandClass,
    CommandKind,
    Direction,
    Parameter,
    ParamKind,
    make_get_set_report,
)

CONTROLLING = Direction.CONTROLLING
SUPPORTING = Direction.SUPPORTING
BOTH = Direction.BOTH

GET = CommandKind.GET
SET = CommandKind.SET
REPORT = CommandKind.REPORT
NOTIFY = CommandKind.NOTIFICATION
OTHER = CommandKind.OTHER


def _p(name: str, position: int, **kwargs) -> Parameter:
    """Shorthand parameter constructor."""
    return Parameter(name, position, **kwargs)


# ---------------------------------------------------------------------------
# Detailed controller-relevant classes
# ---------------------------------------------------------------------------


def _basic() -> CommandClass:
    """BASIC (0x20): the universal value interface every device maps."""
    return CommandClass(
        0x20,
        "BASIC",
        version=2,
        cluster=Cluster.APPLICATION,
        commands=(
            Command(0x01, "BASIC_SET", CONTROLLING, SET, (_p("value", 0),)),
            Command(0x02, "BASIC_GET", CONTROLLING, GET, ()),
            Command(0x03, "BASIC_REPORT", SUPPORTING, REPORT, (_p("value", 0),)),
        ),
    )


def _network_management_inclusion() -> CommandClass:
    """NETWORK_MANAGEMENT_INCLUSION (0x34): richest class (23 commands)."""
    node_id = _p("node_id", 1, kind=ParamKind.NODE_ID)
    seq = _p("seq_no", 0)
    return CommandClass(
        0x34,
        "NETWORK_MANAGEMENT_INCLUSION",
        version=4,
        cluster=Cluster.NETWORK,
        commands=(
            Command(0x01, "NODE_ADD", CONTROLLING, SET, (seq, _p("mode", 1, kind=ParamKind.ENUM, enum_values=(0x01, 0x05, 0x07)))),
            Command(0x02, "NODE_ADD_STATUS", SUPPORTING, REPORT, (seq, _p("status", 1))),
            Command(0x03, "NODE_REMOVE", CONTROLLING, SET, (seq, _p("mode", 1, kind=ParamKind.ENUM, enum_values=(0x01, 0x05)))),
            Command(0x04, "NODE_REMOVE_STATUS", SUPPORTING, REPORT, (seq, _p("status", 1))),
            Command(0x05, "FAILED_NODE_REMOVE", CONTROLLING, SET, (seq, node_id)),
            Command(0x06, "FAILED_NODE_REMOVE_STATUS", SUPPORTING, REPORT, (seq, _p("status", 1))),
            Command(0x07, "FAILED_NODE_REPLACE", CONTROLLING, SET, (seq, node_id)),
            Command(0x08, "FAILED_NODE_REPLACE_STATUS", SUPPORTING, REPORT, (seq, _p("status", 1))),
            Command(0x09, "NODE_NEIGHBOR_UPDATE_REQUEST", CONTROLLING, SET, (seq, node_id)),
            Command(0x0A, "NODE_NEIGHBOR_UPDATE_STATUS", SUPPORTING, REPORT, (seq, _p("status", 1))),
            Command(0x0B, "RETURN_ROUTE_ASSIGN", CONTROLLING, SET, (seq, node_id)),
            Command(0x0C, "RETURN_ROUTE_ASSIGN_COMPLETE", SUPPORTING, REPORT, (seq,)),
            Command(0x0D, "RETURN_ROUTE_DELETE", CONTROLLING, SET, (seq, node_id)),
            Command(0x0E, "RETURN_ROUTE_DELETE_COMPLETE", SUPPORTING, REPORT, (seq,)),
            Command(0x0F, "NODE_ADD_KEYS_REPORT", SUPPORTING, REPORT, (seq, _p("requested_keys", 1, kind=ParamKind.BITMASK))),
            Command(0x10, "NODE_ADD_KEYS_SET", CONTROLLING, SET, (seq, _p("granted_keys", 1, kind=ParamKind.BITMASK))),
            Command(0x11, "NODE_ADD_DSK_REPORT", SUPPORTING, REPORT, (seq, _p("input_dsk_length", 1, kind=ParamKind.RANGE, low=0, high=16))),
            Command(0x12, "NODE_ADD_DSK_SET", CONTROLLING, SET, (seq, _p("accept", 1, kind=ParamKind.ENUM, enum_values=(0x00, 0x80)))),
            Command(0x13, "SMART_START_JOIN_STARTED", SUPPORTING, NOTIFY, (seq,)),
            Command(0x14, "INCLUDED_NIF_REPORT", SUPPORTING, REPORT, (seq,)),
            Command(0x15, "EXTENDED_NODE_ADD_STATUS", SUPPORTING, REPORT, (seq, _p("status", 1))),
            Command(0x16, "S2_BOOTSTRAP_REQUEST", CONTROLLING, SET, (seq, node_id)),
            Command(0x17, "S2_BOOTSTRAP_STATUS", SUPPORTING, REPORT, (seq, _p("status", 1))),
        ),
    )


def _network_management_installation_maintenance() -> CommandClass:
    """NETWORK_MANAGEMENT_INSTALLATION_MAINTENANCE (0x67): 15 commands."""
    node_id = _p("node_id", 0, kind=ParamKind.NODE_ID)
    return CommandClass(
        0x67,
        "NETWORK_MANAGEMENT_INSTALLATION_MAINTENANCE",
        version=4,
        cluster=Cluster.NETWORK,
        commands=(
            Command(0x01, "PRIORITY_ROUTE_SET", CONTROLLING, SET, (node_id, _p("repeater_1", 1, kind=ParamKind.NODE_ID))),
            Command(0x02, "PRIORITY_ROUTE_GET", CONTROLLING, GET, (node_id,)),
            Command(0x03, "PRIORITY_ROUTE_REPORT", SUPPORTING, REPORT, (node_id, _p("route_type", 1))),
            Command(0x04, "STATISTICS_GET", CONTROLLING, GET, (node_id,)),
            Command(0x05, "STATISTICS_REPORT", SUPPORTING, REPORT, (node_id,)),
            Command(0x06, "STATISTICS_CLEAR", CONTROLLING, SET, ()),
            Command(0x07, "RSSI_GET", CONTROLLING, GET, ()),
            Command(0x08, "RSSI_REPORT", SUPPORTING, REPORT, (_p("rssi_ch0", 0), _p("rssi_ch1", 1), _p("rssi_ch2", 2))),
            Command(0x09, "S2_RESYNCHRONIZATION_EVENT", SUPPORTING, NOTIFY, (node_id, _p("reason", 1))),
            Command(0x0A, "MAINTENANCE_GET", CONTROLLING, GET, (node_id,)),
            Command(0x0B, "MAINTENANCE_REPORT", SUPPORTING, REPORT, (node_id,)),
            Command(0x0C, "NEIGHBOR_LIST_GET", CONTROLLING, GET, (node_id,)),
            Command(0x0D, "NEIGHBOR_LIST_REPORT", SUPPORTING, REPORT, (node_id,)),
            Command(0x0E, "ZWAVE_LR_CHANNEL_GET", CONTROLLING, GET, ()),
            Command(0x0F, "ZWAVE_LR_CHANNEL_REPORT", SUPPORTING, REPORT, (_p("channel", 0, kind=ParamKind.ENUM, enum_values=(0x01, 0x02)),)),
        ),
    )


def _user_code() -> CommandClass:
    """USER_CODE (0x63): 11 commands."""
    uid = _p("user_identifier", 0, kind=ParamKind.RANGE, low=0, high=0xFF)
    return CommandClass(
        0x63,
        "USER_CODE",
        version=2,
        cluster=Cluster.APPLICATION,
        commands=(
            Command(0x01, "USER_CODE_SET", CONTROLLING, SET, (uid, _p("status", 1, kind=ParamKind.ENUM, enum_values=(0x00, 0x01, 0x02)))),
            Command(0x02, "USER_CODE_GET", CONTROLLING, GET, (uid,)),
            Command(0x03, "USER_CODE_REPORT", SUPPORTING, REPORT, (uid, _p("status", 1))),
            Command(0x04, "USERS_NUMBER_GET", CONTROLLING, GET, ()),
            Command(0x05, "USERS_NUMBER_REPORT", SUPPORTING, REPORT, (_p("supported_users", 0),)),
            Command(0x06, "USER_CODE_CAPABILITIES_GET", CONTROLLING, GET, ()),
            Command(0x07, "USER_CODE_CAPABILITIES_REPORT", SUPPORTING, REPORT, ()),
            Command(0x08, "USER_CODE_KEYPAD_MODE_SET", CONTROLLING, SET, (_p("mode", 0, kind=ParamKind.ENUM, enum_values=(0x00, 0x01, 0x02, 0x03)),)),
            Command(0x09, "USER_CODE_KEYPAD_MODE_GET", CONTROLLING, GET, ()),
            Command(0x0A, "USER_CODE_KEYPAD_MODE_REPORT", SUPPORTING, REPORT, (_p("mode", 0),)),
            Command(0x0B, "USER_CODE_CHECKSUM_GET", CONTROLLING, GET, ()),
        ),
    )


def _security_2() -> CommandClass:
    """SECURITY_2 (0x9F): S2 encapsulation, 10 commands.

    Bug #06 of the paper lives at CMD 0x01 (``S2 NONCE_GET``): the Windows
    Z-Wave PC Controller program crashes on a malformed nonce request.
    """
    return CommandClass(
        0x9F,
        "SECURITY_2",
        version=1,
        cluster=Cluster.TRANSPORT_ENCAPSULATION,
        commands=(
            Command(0x01, "S2_NONCE_GET", BOTH, GET, (_p("seq_no", 0),)),
            Command(0x02, "S2_NONCE_REPORT", BOTH, REPORT, (_p("seq_no", 0), _p("flags", 1, kind=ParamKind.BITMASK))),
            Command(0x03, "S2_MESSAGE_ENCAPSULATION", BOTH, OTHER, (_p("seq_no", 0), _p("extensions", 1, kind=ParamKind.BITMASK))),
            Command(0x04, "KEX_GET", CONTROLLING, GET, ()),
            Command(0x05, "KEX_REPORT", SUPPORTING, REPORT, (_p("flags", 0, kind=ParamKind.BITMASK), _p("schemes", 1), _p("profiles", 2), _p("keys", 3, kind=ParamKind.BITMASK))),
            Command(0x06, "KEX_SET", CONTROLLING, SET, (_p("flags", 0, kind=ParamKind.BITMASK), _p("schemes", 1), _p("profiles", 2), _p("keys", 3, kind=ParamKind.BITMASK))),
            Command(0x07, "KEX_FAIL", BOTH, NOTIFY, (_p("fail_type", 0, kind=ParamKind.ENUM, enum_values=(0x01, 0x02, 0x03, 0x05, 0x06, 0x07, 0x08, 0x09, 0x0A)),)),
            Command(0x08, "PUBLIC_KEY_REPORT", BOTH, REPORT, (_p("including_node", 0, kind=ParamKind.ENUM, enum_values=(0x00, 0x01)),)),
            Command(0x09, "S2_TRANSFER_END", BOTH, OTHER, (_p("flags", 0, kind=ParamKind.BITMASK),)),
            Command(0x0A, "S2_COMMANDS_SUPPORTED_GET", CONTROLLING, GET, ()),
        ),
    )


def _security_s0() -> CommandClass:
    """SECURITY (0x98): the S0 encapsulation class, 8 commands."""
    return CommandClass(
        0x98,
        "SECURITY",
        version=1,
        cluster=Cluster.TRANSPORT_ENCAPSULATION,
        commands=(
            Command(0x02, "COMMANDS_SUPPORTED_GET", CONTROLLING, GET, ()),
            Command(0x03, "COMMANDS_SUPPORTED_REPORT", SUPPORTING, REPORT, (_p("reports_to_follow", 0),)),
            Command(0x04, "SCHEME_GET", CONTROLLING, GET, (_p("supported_schemes", 0, kind=ParamKind.BITMASK),)),
            Command(0x05, "SCHEME_REPORT", SUPPORTING, REPORT, (_p("supported_schemes", 0, kind=ParamKind.BITMASK),)),
            Command(0x06, "NETWORK_KEY_SET", CONTROLLING, SET, (_p("key_byte_0", 0),)),
            Command(0x07, "NETWORK_KEY_VERIFY", SUPPORTING, REPORT, ()),
            Command(0x40, "NONCE_GET", BOTH, GET, ()),
            Command(0x80, "NONCE_REPORT", BOTH, REPORT, (_p("nonce_byte_0", 0),)),
        ),
    )


def _firmware_update_md() -> CommandClass:
    """FIRMWARE_UPDATE_MD (0x7A): 7 commands; bugs #09 and #15 live here."""
    return CommandClass(
        0x7A,
        "FIRMWARE_UPDATE_MD",
        version=5,
        cluster=Cluster.MANAGEMENT,
        commands=(
            Command(0x01, "FIRMWARE_MD_GET", CONTROLLING, GET, ()),
            Command(0x02, "FIRMWARE_MD_REPORT", SUPPORTING, REPORT, (_p("manufacturer_id_msb", 0), _p("manufacturer_id_lsb", 1))),
            Command(0x03, "FIRMWARE_UPDATE_MD_REQUEST_GET", CONTROLLING, GET, (_p("manufacturer_id_msb", 0), _p("manufacturer_id_lsb", 1))),
            Command(0x04, "FIRMWARE_UPDATE_MD_REQUEST_REPORT", SUPPORTING, REPORT, (_p("status", 0),)),
            Command(0x05, "FIRMWARE_UPDATE_MD_GET", SUPPORTING, GET, (_p("number_of_reports", 0), _p("report_number", 1))),
            Command(0x06, "FIRMWARE_UPDATE_MD_REPORT", CONTROLLING, REPORT, (_p("report_number_msb", 0), _p("report_number_lsb", 1))),
            Command(0x07, "FIRMWARE_UPDATE_MD_STATUS_REPORT", SUPPORTING, REPORT, (_p("status", 0), _p("wait_time_msb", 1), _p("wait_time_lsb", 2))),
        ),
    )


def _association_group_info() -> CommandClass:
    """ASSOCIATION_GRP_INFO (0x59): 6 commands; bugs #08 and #11 live here."""
    group = _p("grouping_identifier", 0, kind=ParamKind.RANGE, low=1, high=5)
    group_at_1 = _p("grouping_identifier", 1, kind=ParamKind.RANGE, low=1, high=5)
    return CommandClass(
        0x59,
        "ASSOCIATION_GRP_INFO",
        version=3,
        cluster=Cluster.MANAGEMENT,
        commands=(
            Command(0x01, "GROUP_NAME_GET", CONTROLLING, GET, (group,)),
            Command(0x02, "GROUP_NAME_REPORT", SUPPORTING, REPORT, (group, _p("length", 1))),
            Command(0x03, "GROUP_INFO_GET", CONTROLLING, GET, (_p("flags", 0, kind=ParamKind.BITMASK), group_at_1)),
            Command(0x04, "GROUP_INFO_REPORT", SUPPORTING, REPORT, (_p("flags", 0, kind=ParamKind.BITMASK), group_at_1)),
            Command(0x05, "GROUP_COMMAND_LIST_GET", CONTROLLING, GET, (_p("flags", 0, kind=ParamKind.BITMASK), group_at_1)),
            Command(0x06, "GROUP_COMMAND_LIST_REPORT", SUPPORTING, REPORT, (group, _p("list_length", 1))),
        ),
    )


def _door_lock() -> CommandClass:
    """DOOR_LOCK (0x62): 6 commands (controlling side lives in the hub)."""
    mode = _p("door_lock_mode", 0, kind=ParamKind.ENUM, enum_values=(0x00, 0x01, 0x10, 0x11, 0x20, 0x21, 0xFF))
    return CommandClass(
        0x62,
        "DOOR_LOCK",
        version=4,
        cluster=Cluster.APPLICATION,
        commands=(
            Command(0x01, "DOOR_LOCK_OPERATION_SET", CONTROLLING, SET, (mode,)),
            Command(0x02, "DOOR_LOCK_OPERATION_GET", CONTROLLING, GET, ()),
            Command(0x03, "DOOR_LOCK_OPERATION_REPORT", SUPPORTING, REPORT, (mode, _p("handles_mode", 1, kind=ParamKind.BITMASK))),
            Command(0x04, "DOOR_LOCK_CONFIGURATION_SET", CONTROLLING, SET, (_p("operation_type", 0, kind=ParamKind.ENUM, enum_values=(0x01, 0x02)),)),
            Command(0x05, "DOOR_LOCK_CONFIGURATION_GET", CONTROLLING, GET, ()),
            Command(0x06, "DOOR_LOCK_CONFIGURATION_REPORT", SUPPORTING, REPORT, (_p("operation_type", 0),)),
        ),
    )


def _association() -> CommandClass:
    """ASSOCIATION (0x85): 5 commands."""
    group = _p("grouping_identifier", 0, kind=ParamKind.RANGE, low=1, high=5)
    return CommandClass(
        0x85,
        "ASSOCIATION",
        version=2,
        cluster=Cluster.MANAGEMENT,
        commands=(
            Command(0x01, "ASSOCIATION_SET", CONTROLLING, SET, (group, _p("node_id", 1, kind=ParamKind.NODE_ID))),
            Command(0x02, "ASSOCIATION_GET", CONTROLLING, GET, (group,)),
            Command(0x03, "ASSOCIATION_REPORT", SUPPORTING, REPORT, (group, _p("max_nodes", 1))),
            Command(0x04, "ASSOCIATION_REMOVE", CONTROLLING, SET, (group, _p("node_id", 1, kind=ParamKind.NODE_ID))),
            Command(0x05, "ASSOCIATION_GROUPINGS_GET", CONTROLLING, GET, ()),
        ),
    )


def _wake_up() -> CommandClass:
    """WAKE_UP (0x84): 4 commands; bug #14's WAKEUP packet targets this."""
    return CommandClass(
        0x84,
        "WAKE_UP",
        version=3,
        cluster=Cluster.MANAGEMENT,
        commands=(
            Command(0x04, "WAKE_UP_INTERVAL_SET", CONTROLLING, SET, (_p("seconds_msb", 0), _p("seconds_mid", 1), _p("seconds_lsb", 2), _p("node_id", 3, kind=ParamKind.NODE_ID))),
            Command(0x05, "WAKE_UP_INTERVAL_GET", CONTROLLING, GET, ()),
            Command(0x06, "WAKE_UP_INTERVAL_REPORT", SUPPORTING, REPORT, (_p("seconds_msb", 0), _p("seconds_mid", 1), _p("seconds_lsb", 2))),
            Command(0x07, "WAKE_UP_NOTIFICATION", SUPPORTING, NOTIFY, ()),
        ),
    )


def _version() -> CommandClass:
    """VERSION (0x86): bug #10 lives at CMD 0x13 (COMMAND_CLASS_GET)."""
    return CommandClass(
        0x86,
        "VERSION",
        version=3,
        cluster=Cluster.MANAGEMENT,
        commands=(
            Command(0x11, "VERSION_GET", CONTROLLING, GET, ()),
            Command(0x12, "VERSION_REPORT", SUPPORTING, REPORT, (_p("library_type", 0), _p("protocol_version", 1), _p("protocol_sub_version", 2))),
            Command(0x13, "VERSION_COMMAND_CLASS_GET", CONTROLLING, GET, (_p("requested_command_class", 0),)),
            Command(0x14, "VERSION_COMMAND_CLASS_REPORT", SUPPORTING, REPORT, (_p("requested_command_class", 0), _p("command_class_version", 1))),
            Command(0x15, "VERSION_CAPABILITIES_GET", CONTROLLING, GET, ()),
        ),
    )


def _device_reset_locally() -> CommandClass:
    """DEVICE_RESET_LOCALLY (0x5A): 2 commands; bug #07 at CMD 0x01."""
    return CommandClass(
        0x5A,
        "DEVICE_RESET_LOCALLY",
        version=1,
        cluster=Cluster.MANAGEMENT,
        commands=(
            Command(0x01, "DEVICE_RESET_LOCALLY_NOTIFICATION", SUPPORTING, NOTIFY, ()),
            Command(0x02, "DEVICE_RESET_LOCALLY_STATUS", SUPPORTING, REPORT, (_p("status", 0),)),
        ),
    )


def _powerlevel() -> CommandClass:
    """POWERLEVEL (0x73): bug #13 lives at CMD 0x04 (TEST_NODE_SET)."""
    level = _p("power_level", 0, kind=ParamKind.RANGE, low=0x00, high=0x09)
    return CommandClass(
        0x73,
        "POWERLEVEL",
        version=1,
        cluster=Cluster.MANAGEMENT,
        commands=(
            Command(0x01, "POWERLEVEL_SET", CONTROLLING, SET, (level, _p("timeout", 1, kind=ParamKind.RANGE, low=0x01, high=0xFF))),
            Command(0x02, "POWERLEVEL_GET", CONTROLLING, GET, ()),
            Command(0x03, "POWERLEVEL_REPORT", SUPPORTING, REPORT, (level, _p("timeout", 1))),
            Command(0x04, "POWERLEVEL_TEST_NODE_SET", CONTROLLING, SET, (_p("test_node_id", 0, kind=ParamKind.NODE_ID), _p("power_level", 1, kind=ParamKind.RANGE, low=0x00, high=0x09), _p("test_frame_count_msb", 2), _p("test_frame_count_lsb", 3))),
            Command(0x05, "POWERLEVEL_TEST_NODE_GET", CONTROLLING, GET, ()),
            Command(0x06, "POWERLEVEL_TEST_NODE_REPORT", SUPPORTING, REPORT, (_p("test_node_id", 0, kind=ParamKind.NODE_ID), _p("status", 1))),
        ),
    )


def _application_status() -> CommandClass:
    """APPLICATION_STATUS (0x22): 2 commands."""
    return CommandClass(
        0x22,
        "APPLICATION_STATUS",
        version=1,
        cluster=Cluster.MANAGEMENT,
        commands=(
            Command(0x01, "APPLICATION_BUSY", SUPPORTING, NOTIFY, (_p("status", 0, kind=ParamKind.ENUM, enum_values=(0x00, 0x01, 0x02)), _p("wait_time", 1))),
            Command(0x02, "APPLICATION_REJECTED_REQUEST", SUPPORTING, NOTIFY, (_p("status", 0),)),
        ),
    )


def _switch_binary() -> CommandClass:
    """SWITCH_BINARY (0x25): the smart-switch interface (D9)."""
    value = _p("target_value", 0, kind=ParamKind.ENUM, enum_values=(0x00, 0xFF))
    return CommandClass(
        0x25,
        "SWITCH_BINARY",
        version=2,
        cluster=Cluster.APPLICATION,
        commands=(
            Command(0x01, "SWITCH_BINARY_SET", CONTROLLING, SET, (value,)),
            Command(0x02, "SWITCH_BINARY_GET", CONTROLLING, GET, ()),
            Command(0x03, "SWITCH_BINARY_REPORT", SUPPORTING, REPORT, (_p("current_value", 0),)),
        ),
    )


def _switch_multilevel() -> CommandClass:
    """SWITCH_MULTILEVEL (0x26)."""
    value = _p("value", 0, kind=ParamKind.RANGE, low=0x00, high=0x63)
    return CommandClass(
        0x26,
        "SWITCH_MULTILEVEL",
        version=4,
        cluster=Cluster.APPLICATION,
        commands=(
            Command(0x01, "SWITCH_MULTILEVEL_SET", CONTROLLING, SET, (value, _p("duration", 1))),
            Command(0x02, "SWITCH_MULTILEVEL_GET", CONTROLLING, GET, ()),
            Command(0x03, "SWITCH_MULTILEVEL_REPORT", SUPPORTING, REPORT, (value,)),
            Command(0x04, "SWITCH_MULTILEVEL_START_LEVEL_CHANGE", CONTROLLING, SET, (_p("flags", 0, kind=ParamKind.BITMASK), _p("start_level", 1, kind=ParamKind.RANGE, low=0x00, high=0x63))),
            Command(0x05, "SWITCH_MULTILEVEL_STOP_LEVEL_CHANGE", CONTROLLING, SET, ()),
        ),
    )


def _supervision() -> CommandClass:
    """SUPERVISION (0x6C) transport encapsulation."""
    return CommandClass(
        0x6C,
        "SUPERVISION",
        version=2,
        cluster=Cluster.TRANSPORT_ENCAPSULATION,
        commands=(
            Command(0x01, "SUPERVISION_GET", BOTH, GET, (_p("session_id", 0, kind=ParamKind.BITMASK), _p("encapsulated_length", 1))),
            Command(0x02, "SUPERVISION_REPORT", BOTH, REPORT, (_p("session_id", 0, kind=ParamKind.BITMASK), _p("status", 1, kind=ParamKind.ENUM, enum_values=(0x00, 0x01, 0x02, 0xFF)))),
        ),
    )


def _manufacturer_specific() -> CommandClass:
    """MANUFACTURER_SPECIFIC (0x72)."""
    return CommandClass(
        0x72,
        "MANUFACTURER_SPECIFIC",
        version=2,
        cluster=Cluster.MANAGEMENT,
        commands=(
            Command(0x04, "MANUFACTURER_SPECIFIC_GET", CONTROLLING, GET, ()),
            Command(0x05, "MANUFACTURER_SPECIFIC_REPORT", SUPPORTING, REPORT, (_p("manufacturer_id_msb", 0), _p("manufacturer_id_lsb", 1))),
            Command(0x06, "DEVICE_SPECIFIC_GET", CONTROLLING, GET, (_p("device_id_type", 0, kind=ParamKind.ENUM, enum_values=(0x00, 0x01, 0x02)),)),
            Command(0x07, "DEVICE_SPECIFIC_REPORT", SUPPORTING, REPORT, (_p("device_id_type", 0),)),
        ),
    )


def _zwaveplus_info() -> CommandClass:
    """ZWAVEPLUS_INFO (0x5E)."""
    return CommandClass(
        0x5E,
        "ZWAVEPLUS_INFO",
        version=2,
        cluster=Cluster.MANAGEMENT,
        commands=(
            Command(0x01, "ZWAVEPLUS_INFO_GET", CONTROLLING, GET, ()),
            Command(0x02, "ZWAVEPLUS_INFO_REPORT", SUPPORTING, REPORT, (_p("zwaveplus_version", 0), _p("role_type", 1), _p("node_type", 2))),
        ),
    )


def _configuration() -> CommandClass:
    """CONFIGURATION (0x70)."""
    number = _p("parameter_number", 0)
    return CommandClass(
        0x70,
        "CONFIGURATION",
        version=4,
        cluster=Cluster.APPLICATION,
        commands=(
            Command(0x04, "CONFIGURATION_SET", CONTROLLING, SET, (number, _p("size", 1, kind=ParamKind.ENUM, enum_values=(0x01, 0x02, 0x04)))),
            Command(0x05, "CONFIGURATION_GET", CONTROLLING, GET, (number,)),
            Command(0x06, "CONFIGURATION_REPORT", SUPPORTING, REPORT, (number, _p("size", 1))),
            Command(0x07, "CONFIGURATION_BULK_SET", CONTROLLING, SET, (_p("offset_msb", 0), _p("offset_lsb", 1))),
            Command(0x08, "CONFIGURATION_BULK_GET", CONTROLLING, GET, (_p("offset_msb", 0), _p("offset_lsb", 1))),
        ),
    )


def _notification() -> CommandClass:
    """NOTIFICATION (0x71)."""
    ntype = _p("notification_type", 0)
    return CommandClass(
        0x71,
        "NOTIFICATION",
        version=8,
        cluster=Cluster.APPLICATION,
        commands=(
            Command(0x01, "NOTIFICATION_SET", CONTROLLING, SET, (ntype, _p("status", 1, kind=ParamKind.ENUM, enum_values=(0x00, 0xFF)))),
            Command(0x04, "NOTIFICATION_GET", CONTROLLING, GET, (_p("v1_alarm_type", 0), _p("notification_type", 1))),
            Command(0x05, "NOTIFICATION_REPORT", SUPPORTING, REPORT, (_p("v1_alarm_type", 0), _p("v1_alarm_level", 1))),
            Command(0x07, "NOTIFICATION_SUPPORTED_GET", CONTROLLING, GET, ()),
            Command(0x08, "NOTIFICATION_SUPPORTED_REPORT", SUPPORTING, REPORT, (_p("number_of_bit_masks", 0),)),
        ),
    )


def _multi_channel() -> CommandClass:
    """MULTI_CHANNEL (0x60) encapsulation."""
    endpoint = _p("end_point", 0, kind=ParamKind.RANGE, low=1, high=127)
    return CommandClass(
        0x60,
        "MULTI_CHANNEL",
        version=4,
        cluster=Cluster.TRANSPORT_ENCAPSULATION,
        commands=(
            Command(0x07, "MULTI_CHANNEL_END_POINT_GET", CONTROLLING, GET, ()),
            Command(0x08, "MULTI_CHANNEL_END_POINT_REPORT", SUPPORTING, REPORT, (_p("flags", 0, kind=ParamKind.BITMASK), _p("endpoints", 1))),
            Command(0x09, "MULTI_CHANNEL_CAPABILITY_GET", CONTROLLING, GET, (endpoint,)),
            Command(0x0A, "MULTI_CHANNEL_CAPABILITY_REPORT", SUPPORTING, REPORT, (endpoint,)),
            Command(0x0D, "MULTI_CHANNEL_CMD_ENCAP", BOTH, OTHER, (_p("source_end_point", 0), _p("destination", 1))),
        ),
    )


# ---------------------------------------------------------------------------
# Proprietary classes — ABSENT from the public specification
# ---------------------------------------------------------------------------


def _proprietary_network_management() -> CommandClass:
    """Proprietary CMDCL 0x01: Z-Wave network-management internals.

    Section III-C2: "ZCover uncovered two additional proprietary CMDCLs
    (0x01 and 0x02) that were absent from the official Z-Wave
    specification.  Notably, CMDCL 0x01, a Z-Wave network management
    property, was not explicitly listed by developers, likely due to
    incomplete implementation."  Seven of the fifteen zero-days (Table III)
    live here: CMD 0x0D manipulates the controller's node table (bugs #01 -
    #04, #12), CMD 0x02 causes the smartphone-app DoS (bug #05) and CMD
    0x04 triggers the four-minute neighbour-discovery stall (bug #14).
    """
    node_id = _p("node_id", 0, kind=ParamKind.NODE_ID)
    node_id_1 = _p("node_id", 1, kind=ParamKind.NODE_ID)
    return CommandClass(
        0x01,
        "ZWAVE_PROTOCOL",
        version=1,
        cluster=Cluster.PROPRIETARY,
        in_public_spec=False,
        secure_only=True,
        commands=(
            Command(0x01, "PROTOCOL_NODE_INFO", BOTH, OTHER, (node_id,)),
            Command(0x02, "PROTOCOL_APP_UPDATE", SUPPORTING, NOTIFY, (_p("status", 0), node_id_1)),
            Command(0x03, "PROTOCOL_CMD_COMPLETE", SUPPORTING, NOTIFY, ()),
            Command(0x04, "PROTOCOL_FIND_NODES_IN_RANGE", CONTROLLING, SET, (_p("node_mask_length", 0, kind=ParamKind.RANGE, low=0, high=29), _p("node_mask_0", 1, kind=ParamKind.BITMASK))),
            Command(0x05, "PROTOCOL_GET_NODES_IN_RANGE", CONTROLLING, GET, ()),
            Command(0x06, "PROTOCOL_RANGE_INFO", SUPPORTING, REPORT, (_p("node_mask_length", 0),)),
            Command(0x07, "PROTOCOL_COMMAND_COMPLETE", SUPPORTING, NOTIFY, (_p("seq_no", 0),)),
            Command(0x08, "PROTOCOL_TRANSFER_PRESENTATION", CONTROLLING, NOTIFY, (_p("option", 0, kind=ParamKind.BITMASK),)),
            Command(0x09, "PROTOCOL_TRANSFER_NODE_INFO", CONTROLLING, SET, (_p("seq_no", 0), node_id_1, _p("capability", 2, kind=ParamKind.BITMASK))),
            Command(0x0A, "PROTOCOL_TRANSFER_RANGE_INFO", CONTROLLING, SET, (_p("seq_no", 0), node_id_1)),
            Command(0x0B, "PROTOCOL_TRANSFER_END", CONTROLLING, NOTIFY, (_p("status", 0),)),
            Command(0x0C, "PROTOCOL_ASSIGN_RETURN_ROUTE", CONTROLLING, SET, (node_id, _p("route_index", 1))),
            Command(
                0x0D,
                "PROTOCOL_NVM_NODE_WRITE",
                CONTROLLING,
                SET,
                (
                    node_id,
                    _p("operation", 1, kind=ParamKind.ENUM, enum_values=(0x00, 0x01, 0x02, 0x03, 0x04)),
                    _p("capability", 2, kind=ParamKind.BITMASK),
                    _p("security", 3, kind=ParamKind.BITMASK),
                    _p("device_class", 4),
                ),
            ),
            Command(0x0E, "PROTOCOL_NEW_NODE_REGISTERED", SUPPORTING, NOTIFY, (node_id,)),
            Command(0x0F, "PROTOCOL_NEW_RANGE_REGISTERED", SUPPORTING, NOTIFY, (node_id,)),
            Command(0x10, "PROTOCOL_TRANSFER_NEW_PRIMARY_COMPLETE", SUPPORTING, NOTIFY, (_p("role", 0),)),
            Command(0x11, "PROTOCOL_AUTOMATIC_CONTROLLER_UPDATE_START", CONTROLLING, NOTIFY, ()),
            Command(0x12, "PROTOCOL_SUC_NODE_ID", CONTROLLING, SET, (node_id, _p("suc_state", 1, kind=ParamKind.ENUM, enum_values=(0x00, 0x01)))),
            Command(0x13, "PROTOCOL_SET_SUC", CONTROLLING, SET, (_p("state", 0, kind=ParamKind.ENUM, enum_values=(0x00, 0x01)),)),
            Command(0x14, "PROTOCOL_SET_SUC_ACK", SUPPORTING, NOTIFY, (_p("result", 0),)),
        ),
    )


def _proprietary_zensor_net() -> CommandClass:
    """Proprietary CMDCL 0x02: legacy Zensor-net binding, 3 commands."""
    return CommandClass(
        0x02,
        "ZENSOR_NET",
        version=1,
        cluster=Cluster.PROPRIETARY,
        in_public_spec=False,
        commands=(
            Command(0x01, "ZENSOR_BIND", CONTROLLING, SET, (_p("bind_flags", 0, kind=ParamKind.BITMASK),)),
            Command(0x02, "ZENSOR_BIND_ACCEPT", SUPPORTING, REPORT, ()),
            Command(0x03, "ZENSOR_BIND_COMPLETE", SUPPORTING, NOTIFY, ()),
        ),
    )


# ---------------------------------------------------------------------------
# Remaining public classes (simple trio / small command sets)
# ---------------------------------------------------------------------------

#: (id, name, cluster, extra command specs).  Classes without ``extra`` get
#: the canonical SET/GET/REPORT trio.  ``n_extra`` appends numbered vendor
#: commands to vary the Figure 5 distribution realistically.
_SIMPLE_CONTROLLER_CLASSES: Tuple[Tuple[int, str, Cluster], ...] = (
    (0x21, "CONTROLLER_REPLICATION", Cluster.MANAGEMENT),
    (0x27, "SWITCH_ALL", Cluster.APPLICATION),
    (0x2B, "SCENE_ACTIVATION", Cluster.APPLICATION),
    (0x52, "NETWORK_MANAGEMENT_PROXY", Cluster.NETWORK),
    (0x54, "NETWORK_MANAGEMENT_PRIMARY", Cluster.NETWORK),
    (0x55, "TRANSPORT_SERVICE", Cluster.TRANSPORT_ENCAPSULATION),
    (0x56, "CRC_16_ENCAP", Cluster.TRANSPORT_ENCAPSULATION),
    (0x57, "APPLICATION_CAPABILITY", Cluster.MANAGEMENT),
    (0x5B, "CENTRAL_SCENE", Cluster.APPLICATION),
    (0x66, "BARRIER_OPERATOR", Cluster.APPLICATION),
    (0x74, "INCLUSION_CONTROLLER", Cluster.NETWORK),
    (0x75, "PROTECTION", Cluster.MANAGEMENT),
    (0x77, "NODE_NAMING", Cluster.MANAGEMENT),
    (0x78, "NODE_PROVISIONING", Cluster.NETWORK),
    (0x80, "BATTERY", Cluster.MANAGEMENT),
    (0x87, "INDICATOR", Cluster.APPLICATION),
    (0x8A, "TIME", Cluster.MANAGEMENT),
    (0x8B, "TIME_PARAMETERS", Cluster.MANAGEMENT),
    (0x8E, "MULTI_CHANNEL_ASSOCIATION", Cluster.MANAGEMENT),
    (0x8F, "MULTI_CMD", Cluster.TRANSPORT_ENCAPSULATION),
)

_SLAVE_CLASSES: Tuple[Tuple[int, str], ...] = (
    (0x23, "ZIP"),
    (0x24, "SECURITY_PANEL_MODE"),
    (0x28, "SWITCH_TOGGLE_BINARY"),
    (0x29, "SWITCH_TOGGLE_MULTILEVEL"),
    (0x2A, "SCENE_ACTUATOR_CONF_V2"),
    (0x2C, "SCENE_ACTUATOR_CONF"),
    (0x2D, "SCENE_CONTROLLER_CONF"),
    (0x30, "SENSOR_BINARY"),
    (0x31, "SENSOR_MULTILEVEL"),
    (0x32, "METER"),
    (0x33, "SWITCH_COLOR"),
    (0x35, "METER_PULSE"),
    (0x36, "BASIC_TARIFF_INFO"),
    (0x37, "HRV_STATUS"),
    (0x38, "THERMOSTAT_HEATING"),
    (0x39, "HRV_CONTROL"),
    (0x3A, "DCP_CONFIG"),
    (0x3B, "DCP_MONITOR"),
    (0x3C, "METER_TBL_CONFIG"),
    (0x3D, "METER_TBL_MONITOR"),
    (0x3E, "METER_TBL_PUSH"),
    (0x3F, "PREPAYMENT"),
    (0x40, "THERMOSTAT_MODE"),
    (0x41, "PREPAYMENT_ENCAPSULATION"),
    (0x42, "THERMOSTAT_OPERATING_STATE"),
    (0x43, "THERMOSTAT_SETPOINT"),
    (0x44, "THERMOSTAT_FAN_MODE"),
    (0x45, "THERMOSTAT_FAN_STATE"),
    (0x46, "CLIMATE_CONTROL_SCHEDULE"),
    (0x47, "THERMOSTAT_SETBACK"),
    (0x48, "RATE_TBL_CONFIG"),
    (0x49, "RATE_TBL_MONITOR"),
    (0x4A, "TARIFF_CONFIG"),
    (0x4B, "TARIFF_TBL_MONITOR"),
    (0x4C, "DOOR_LOCK_LOGGING"),
    (0x4E, "SCHEDULE_ENTRY_LOCK"),
    (0x4F, "ZIP_6LOWPAN"),
    (0x50, "BASIC_WINDOW_COVERING"),
    (0x51, "MTP_WINDOW_COVERING"),
    (0x53, "SCHEDULE"),
    (0x58, "ZIP_ND"),
    (0x5C, "IP_ASSOCIATION"),
    (0x5D, "ANTITHEFT"),
    (0x5F, "ZIP_GATEWAY"),
    (0x61, "ZIP_PORTAL"),
    (0x64, "HUMIDITY_CONTROL_SETPOINT"),
    (0x65, "DMX"),
    (0x68, "ZIP_NAMING"),
    (0x69, "MAILBOX"),
    (0x6A, "WINDOW_COVERING"),
    (0x6B, "IRRIGATION"),
    (0x6D, "HUMIDITY_CONTROL_MODE"),
    (0x6E, "HUMIDITY_CONTROL_OPERATING_STATE"),
    (0x6F, "ENTRY_CONTROL"),
    (0x76, "LOCK"),
    (0x79, "SOUND_SWITCH"),
    (0x7B, "GROUPING_NAME"),
    (0x7C, "REMOTE_ASSOCIATION_ACTIVATE"),
    (0x7D, "REMOTE_ASSOCIATION"),
    (0x7E, "ANTITHEFT_UNLOCK"),
    (0x81, "CLOCK"),
    (0x82, "HAIL"),
    (0x88, "PROPRIETARY_V1"),
    (0x89, "LANGUAGE"),
    (0x8C, "GEOGRAPHIC_LOCATION"),
    (0x90, "ENERGY_PRODUCTION"),
    (0x91, "MANUFACTURER_PROPRIETARY"),
    (0x92, "SCREEN_MD"),
    (0x93, "SCREEN_ATTRIBUTES"),
    (0x94, "SIMPLE_AV_CONTROL"),
    (0x95, "AV_CONTENT_DIRECTORY_MD"),
    (0x96, "AV_RENDERER_STATUS"),
    (0x97, "AV_CONTENT_SEARCH_MD"),
    (0x99, "AV_TAGGING_MD"),
    (0x9A, "IP_CONFIGURATION"),
    (0x9B, "ASSOCIATION_COMMAND_CONFIGURATION"),
    (0x9C, "SENSOR_ALARM"),
    (0x9D, "SILENCE_ALARM"),
    (0x9E, "SENSOR_CONFIGURATION"),
)

#: Classes that deliberately carry unusual command counts so the Figure 5
#: distribution (…, 1, 1, 0) is representable: HAIL has a single command,
#: PROPRIETARY_V1 has a single opaque command, SECURITY_PANEL_MODE is listed
#: in the spec with no public commands.
_SINGLE_COMMAND_CLASSES = {0x82: "HAIL", 0x88: "PROPRIETARY"}
_EMPTY_CLASSES = {0x24}


def _simple_class(cls_id: int, name: str, cluster: Cluster) -> CommandClass:
    """Build a class from the canonical trio (or its special-cased shape)."""
    if cls_id in _EMPTY_CLASSES:
        return CommandClass(cls_id, name, cluster=cluster, commands=())
    if cls_id in _SINGLE_COMMAND_CLASSES:
        only = Command(0x01, _SINGLE_COMMAND_CLASSES[cls_id], BOTH, NOTIFY, ())
        return CommandClass(cls_id, name, cluster=cluster, commands=(only,))
    return CommandClass(cls_id, name, cluster=cluster, commands=make_get_set_report())


def build_public_spec() -> List[CommandClass]:
    """Return the 122 public command classes of the specification release."""
    detailed = [
        _basic(),
        _application_status(),
        _switch_binary(),
        _switch_multilevel(),
        _network_management_inclusion(),
        _association_group_info(),
        _device_reset_locally(),
        _zwaveplus_info(),
        _multi_channel(),
        _door_lock(),
        _user_code(),
        _network_management_installation_maintenance(),
        _supervision(),
        _configuration(),
        _notification(),
        _manufacturer_specific(),
        _powerlevel(),
        _firmware_update_md(),
        _wake_up(),
        _association(),
        _version(),
        _security_s0(),
        _security_2(),
    ]
    simple_controller = [
        _simple_class(cls_id, name, cluster)
        for cls_id, name, cluster in _SIMPLE_CONTROLLER_CLASSES
    ]
    slave = [
        _simple_class(cls_id, name, Cluster.SLAVE_ONLY) for cls_id, name in _SLAVE_CLASSES
    ]
    classes = detailed + simple_controller + slave
    ids = [c.id for c in classes]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise AssertionError(f"duplicate command class ids: {[hex(i) for i in dupes]}")
    return sorted(classes, key=lambda c: c.id)


def build_proprietary_classes() -> List[CommandClass]:
    """Return the proprietary classes absent from the public spec."""
    return [_proprietary_network_management(), _proprietary_zensor_net()]


def build_all_classes() -> Dict[int, CommandClass]:
    """Return every class (public + proprietary) keyed by identifier."""
    classes: Dict[int, CommandClass] = {}
    for cls in build_public_spec() + build_proprietary_classes():
        classes[cls.id] = cls
    return classes


#: The number of classes the 2023B/2024 specification releases list.
PUBLIC_SPEC_CLASS_COUNT = 122
