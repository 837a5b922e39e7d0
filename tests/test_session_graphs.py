"""The session flow graphs as the model of each ceremony.

The simulator runs the inclusion ceremony (none/S0/S2) for the examples;
exclusion, controller replication and the OTA firmware update have no
simulator ceremony, so their ``FLOW_GRAPHS`` entries are the only model
of them.  These tests pin each graph's happy path on the air, and the
protocol facts the exclusion, replication and OTA graphs encode.
"""

import pytest

from repro.core.session import FLOW_GRAPHS, FLOWS

#: Each flow's happy path as ``sender cmdcl:cmd`` frames, in order.
HAPPY_SIGNATURES = {
    "inclusion": "ctrl 01:08, dev 01:01, ctrl 01:09, ctrl 01:0B",
    "exclusion": "ctrl 01:08, dev 01:01, ctrl 01:0B",
    "replication": "ctrl 01:09, ctrl 01:09, ctrl 01:09, ctrl 01:0B",
    "s0": "ctrl 98:04, dev 98:05, dev 98:80, ctrl 98:81, dev 98:07",
    "s2": (
        "ctrl 9F:04, dev 9F:05, ctrl 9F:06, dev 9F:08, ctrl 9F:08, "
        "ctrl 9F:03, dev 9F:09, dev 9F:02, ctrl 9F:03"
    ),
    "ota": "ctrl 7A:03, dev 7A:04, dev 7A:05, ctrl 7A:06, ctrl 7A:06, ctrl 7A:06, dev 7A:07",
}


def _params(flow, label):
    return next(step.params for step in FLOW_GRAPHS[flow].steps if step.label == label)


def test_every_flow_is_pinned():
    assert set(HAPPY_SIGNATURES) == set(FLOWS)


@pytest.mark.parametrize("flow", FLOWS)
def test_happy_path_signature(flow):
    happy = FLOW_GRAPHS[flow].happy
    text = ", ".join(f"{sender} {cmdcl:02X}:{cmd:02X}" for sender, cmdcl, cmd, _ in happy)
    assert text == HAPPY_SIGNATURES[flow]


def test_exclusion_is_inclusion_in_removal_mode():
    # Same NIF exchange; the presentation asks for removal (0x02) where
    # inclusion asks to add (0x01), and the controller's confirm commits it.
    assert _params("inclusion", "presentation") == b"\x01"
    assert _params("exclusion", "presentation") == b"\x02"
    assert _params("exclusion", "nif") == _params("inclusion", "nif")
    assert FLOW_GRAPHS["exclusion"].commit == FLOW_GRAPHS["exclusion"].steps[-1].event()


def test_replication_streams_numbered_records_then_transfer_end():
    steps = FLOW_GRAPHS["replication"].steps
    records = [step.params for step in steps if step.cmd == 0x09]
    assert [params[0] for params in records] == [0, 1, 2]  # sequence numbers
    assert [params[1] for params in records] == [2, 3, 4]  # node ids
    assert steps[-1].cmd == 0x0B and steps[-1].dst == FLOW_GRAPHS["replication"].terminal
    # The injected record reuses sequence number 0 for another node.
    downgrade = FLOW_GRAPHS["replication"].downgrade
    assert downgrade[3][0] == 0 and downgrade[3][1] not in (2, 3, 4)


def test_ota_pulls_every_fragment_and_flags_the_last():
    steps = FLOW_GRAPHS["ota"].steps
    fragments = [step.params for step in steps if step.cmd == 0x06]
    count, first = _params("ota", "pull")
    assert (count, first) == (len(fragments), 1)
    assert [params[0] & 0x7F for params in fragments] == [1, 2, 3]
    assert [params[0] & 0x80 for params in fragments] == [0, 0, 0x80]
    assert _params("ota", "status_ok")[0] == 0xFF
