"""Tests for the ZMAD-style intrusion detection extension."""

import pytest

from repro.analysis.ids import AlertKind, ZWaveIDS
from repro.zwave.frame import ZWaveFrame

HOME = 0xE7DE3F3D


def frame(src=2, dst=1, payload=b"\x62\x03\xff\x00", home=HOME, **kw):
    return ZWaveFrame(home_id=home, src=src, dst=dst, payload=payload, **kw)


def benign_traffic():
    benign = []
    t = 0.0
    for _ in range(20):
        benign.append((t, frame(src=1, dst=2, payload=b"\x20\x02")))  # polls
        benign.append((t + 1.0, frame(src=2, dst=1, payload=b"\x62\x03\xff\x00")))
        benign.append((t + 2.0, frame(src=3, dst=1, payload=b"\x25\x03\x00")))
        t += 30.0
    return benign


def trained_ids():
    ids = ZWaveIDS(HOME)
    ids.train(benign_traffic())
    return ids


def trained_model():
    return ZWaveIDS(HOME).train(benign_traffic())


class TestTraining:
    def test_model_learns_senders_and_classes(self):
        model = trained_model()
        assert model.known_senders == {1, 2, 3}
        assert model.known_cmdcls == {0x20, 0x62, 0x25}

    def test_model_learns_length_bounds(self):
        assert trained_model().length_bounds[0x62] == (4, 4)

    def test_model_learns_peak_rate(self):
        assert trained_model().max_rate_per_minute >= 3

    def test_foreign_frames_ignored_in_training(self):
        model = ZWaveIDS(HOME).train([(0.0, frame(home=0x12345678))])
        assert model.known_senders == set()

    def test_inspect_before_training_raises(self):
        ids = ZWaveIDS(HOME)
        with pytest.raises(RuntimeError):
            ids.inspect(0.0, frame())


class TestDetection:
    def test_benign_traffic_is_silent(self):
        ids = trained_ids()
        alerts = ids.inspect(700.0, frame(src=2, payload=b"\x62\x03\x00\x00"))
        assert alerts == []

    def test_unknown_sender_flagged(self):
        ids = trained_ids()
        alerts = ids.inspect(700.0, frame(src=0x0F, payload=b"\x20\x02"))
        assert AlertKind.UNKNOWN_SENDER in {a.kind for a in alerts}

    def test_foreign_network_flagged(self):
        ids = trained_ids()
        alerts = ids.inspect(700.0, frame(home=0xDEADBEEF))
        assert AlertKind.FOREIGN_NETWORK in {a.kind for a in alerts}

    def test_unknown_cmdcl_flagged(self):
        # The proprietary CMDCL 0x01 attack payloads of Table III.
        ids = trained_ids()
        alerts = ids.inspect(700.0, frame(src=2, payload=b"\x01\x0d\x02\x03"))
        assert AlertKind.UNKNOWN_CMDCL in {a.kind for a in alerts}

    def test_unknown_cmd_flagged(self):
        ids = trained_ids()
        alerts = ids.inspect(700.0, frame(src=2, payload=b"\x62\x42\x00\x00"))
        assert AlertKind.UNKNOWN_CMD in {a.kind for a in alerts}

    def test_length_anomaly_flagged(self):
        ids = trained_ids()
        alerts = ids.inspect(700.0, frame(src=2, payload=b"\x62\x03"))
        assert AlertKind.LENGTH_ANOMALY in {a.kind for a in alerts}

    def test_rate_anomaly_flagged(self):
        ids = trained_ids()
        raised = []
        for i in range(40):
            raised += ids.inspect(700.0 + i * 0.5, frame(src=2, payload=b"\x62\x03\xff\x00"))
        assert AlertKind.RATE_ANOMALY in {a.kind for a in raised}

    def test_every_table3_payload_raises_an_alert(self):
        """The remediation claim: the IDS catches all fifteen attacks."""
        ids = trained_ids()
        attack_payloads = [
            b"\x01\x0d\x02\x01", b"\x01\x0d\xc8\x02", b"\x01\x0d\x02\x03",
            b"\x01\x0d\x01\x04", b"\x01\x02", b"\x9f\x01", b"\x5a\x01",
            b"\x59\x03\x00\x01", b"\x7a\x01", b"\x86\x13\x00",
            b"\x59\x05\x00\x01", b"\x01\x0d\x02\x00", b"\x73\x04\x01\x05",
            b"\x01\x04\xff", b"\x7a\x03\x00\x01",
        ]
        for i, payload in enumerate(attack_payloads):
            alerts = ids.inspect(800.0 + i, frame(src=0x0F, payload=payload))
            assert alerts, payload.hex()

    def test_ack_frames_only_checked_for_network(self):
        ids = trained_ids()
        ack = frame(payload=b"").ack()
        assert ids.inspect(700.0, ack) == []

    def test_sequence_anomaly_on_known_fields(self):
        """The Markov layer: every field trained, the *order* is not."""
        ids = trained_ids()
        # Benign training never showed node 2 sending a switch report
        # right after a lock report (0x62 -> 0x25).
        ids.inspect(700.0, frame(src=2, payload=b"\x62\x03\xff\x00"))
        alerts = ids.inspect(700.5, frame(src=2, payload=b"\x25\x03\x00"))
        assert AlertKind.SEQUENCE_ANOMALY in {a.kind for a in alerts}

    def test_trained_transition_is_silent(self):
        ids = trained_ids()
        # Consecutive lock reports occur in training (period 30 s).
        ids.inspect(700.0, frame(src=2, payload=b"\x62\x03\xff\x00"))
        alerts = ids.inspect(730.0, frame(src=2, payload=b"\x62\x03\x00\x00"))
        assert AlertKind.SEQUENCE_ANOMALY not in {a.kind for a in alerts}

    def test_model_learns_transitions(self):
        assert (2, 0x62, 0x62) in trained_model().transitions

    def test_alert_history_accumulates(self):
        ids = trained_ids()
        for timestamp in (700.0, 701.0):
            alerts = ids.inspect(timestamp, frame(src=0x0F, payload=b"\x20\x02"))
            assert AlertKind.UNKNOWN_SENDER in {a.kind for a in alerts}
