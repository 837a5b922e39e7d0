"""Lazy-decode correctness and decode-count regression (ISSUE 10).

The capture path stopped eagerly decoding every sniffed frame: a
:class:`~repro.zwave.frame.FrameView` borrows the raw buffer and decodes
fields on first touch.  Two contracts keep that safe:

* **field equivalence** — for 1000 seeded mutated frames, every field of
  the Table I mutation hierarchy (``FIELD_OPERATORS``) that the lazy view
  exposes equals the eager ``ZWaveFrame.decode(verify=False)`` value,
  and ``lenient_view`` returns ``None`` exactly when the eager lenient
  decode would raise;
* **decode-count regression** — a counting stub on ``ZWaveFrame.decode``
  proves a fuzzing run performs strictly fewer eager decodes than it
  captures frames (the retired capture path paid one decode per capture,
  so any regression to eager capture decoding trips this immediately).
"""

import random

import pytest

from repro.core.fuzzer import FuzzerConfig, FuzzingEngine
from repro.core.mutation import FIELD_OPERATORS, PositionSensitiveMutator
from repro.simulator.testbed import build_sut
from repro.zwave import constants as const
from repro.zwave.frame import FrameView, ZWaveFrame, lenient_view
from repro.zwave.registry import load_full_registry

N_FRAMES = 1000


def _mutated_raws():
    """1000 seeded frame buffers: mutator-derived payloads plus raw noise.

    The first half wraps genuine position-sensitive mutator output in
    encoded frames and then flips a few seeded bytes (checksum and LEN
    corruption included — the lenient parsers must agree on garbage too);
    the second half is unstructured random buffers across the full
    dissectable length range.
    """
    rng = random.Random(1009)
    mutator = PositionSensitiveMutator(load_full_registry(), random.Random(7))
    raws = []
    cases = mutator.generate(0x20)
    while len(raws) < N_FRAMES // 2:
        case = next(cases, None)
        if case is None:
            cases = mutator.generate(rng.choice((0x25, 0x26, 0x70, 0x71)))
            continue
        payload = case.encode()[: const.MAX_MAC_FRAME_SIZE - const.MAC_HEADER_SIZE - 1]
        frame = ZWaveFrame(
            home_id=rng.randrange(1 << 32),
            src=rng.randrange(256),
            dst=rng.randrange(256),
            payload=payload,
            sequence=rng.randrange(16),
        )
        raw = bytearray(frame.encode())
        for _ in range(rng.randrange(0, 4)):
            raw[rng.randrange(len(raw))] = rng.randrange(256)
        raws.append(bytes(raw))
    while len(raws) < N_FRAMES:
        length = rng.randrange(
            const.MAC_HEADER_SIZE + const.CS8_TRAILER_SIZE,
            const.MAX_MAC_FRAME_SIZE + 1,
        )
        raws.append(bytes(rng.randrange(256) for _ in range(length)))
    return raws


#: FIELD_OPERATORS key -> the view attribute(s) both decoders must agree
#: on.  The view exposes only what capture consumers read; P2 (sequence),
#: LEN and CS have no view reader, so a mutation there can only show in
#: ``raw``, which the test pins byte for byte.
FIELD_READS = {
    "H-ID": ("home_id",),
    "SRC": ("src",),
    "P1": ("is_ack",),
    "P2": (),
    "LEN": (),
    "DST": ("dst",),
    "CMDCL": ("cmdcl",),
    "CMD": ("cmd",),
    "PARAM": ("payload",),
    "CS": (),
}


def test_field_reads_cover_the_mutation_hierarchy():
    assert set(FIELD_READS) == set(FIELD_OPERATORS)


class TestLazyFieldEquivalence:
    @pytest.fixture(scope="class")
    def raws(self):
        return _mutated_raws()

    def test_every_field_matches_eager_decode(self, raws):
        assert len(raws) == N_FRAMES
        for raw in raws:
            view = lenient_view(raw)
            assert view is not None  # all generated lengths are dissectable
            eager = ZWaveFrame.decode(raw, verify=False)
            for attrs in FIELD_READS.values():
                for attr in attrs:
                    assert getattr(view, attr) == getattr(eager, attr), (
                        attr,
                        raw.hex(),
                    )
            assert view.raw == raw

    def test_lenient_view_rejects_exactly_what_decode_rejects(self):
        rng = random.Random(31)
        for length in range(0, const.MAX_MAC_FRAME_SIZE + 20):
            raw = bytes(rng.randrange(256) for _ in range(length))
            view = lenient_view(raw)
            try:
                ZWaveFrame.decode(raw, verify=False)
                decodable = True
            except Exception:
                decodable = False
            assert (view is not None) == decodable, length

    def test_payload_is_memoised_not_recopied(self):
        frame = ZWaveFrame(home_id=0xCAFE, src=1, dst=2, payload=bytes([0x20, 0x02, 0xAA]))
        view = FrameView(frame.encode())
        assert view.payload is view.payload  # one slice, then the memo


class TestDecodeCountRegression:
    @pytest.fixture
    def counting(self, monkeypatch):
        decode_calls = []
        real_decode = ZWaveFrame.decode.__func__

        def counting_decode(cls, raw, verify=True):
            decode_calls.append(verify)
            return real_decode(cls, raw, verify)

        monkeypatch.setattr(ZWaveFrame, "decode", classmethod(counting_decode))
        return decode_calls

    def test_capture_path_performs_zero_decodes(self, counting):
        """Sniffing — even with field reads — never calls the eager codec."""
        sut = build_sut("D1", seed=3, traffic=False)
        sut.dongle.clear_captures()
        baseline = len(counting)
        frame = ZWaveFrame(
            home_id=sut.profile.home_id, src=2, dst=250, payload=bytes([0x20, 0x02])
        )
        raw = frame.encode()
        for _ in range(20):
            sut.medium.transmit(sut.controller.name, raw, rate_kbaud=100.0)
            sut.clock.advance(0.05)
        captures = sut.dongle.captures()
        assert len(captures) == 20
        # Touching lazy fields stays decode-free; only the slave that the
        # frame addressed may have paid a strict decode.
        for capture in captures:
            assert capture.frame is not None
            assert capture.frame.cmdcl == 0x20 and capture.frame.dst == 250
        slave_decodes = len(counting) - baseline
        assert slave_decodes <= 20  # never one per *capture* on top

    def test_fuzzing_run_decodes_strictly_fewer_than_deliveries(self, counting):
        """The eager world paid >= one decode per delivered reception
        (every capture parsed up front); the lazy view must keep total
        decode work strictly below the delivery count."""
        sut = build_sut("D1", seed=3, traffic=False)
        engine = FuzzingEngine(sut, FuzzerConfig())
        mutator = PositionSensitiveMutator(load_full_registry(), random.Random(3))
        result = engine.run([(0x20, mutator.generate(0x20), 120.0)], duration=120.0)

        captures = len(sut.dongle.captures())
        deliveries = sut.medium.stats["deliveries"]
        decodes = len(counting)
        assert result.packets_sent > 0 and captures > 0
        assert decodes < deliveries, (decodes, deliveries)
