"""Property-based codec invariants for the frame and S2 layers.

Instead of fixed vectors, these tests sweep ~500 seeded-random inputs
through the encode/decode (and encap/decap) pipelines and assert the
invariants every codec must hold: round trips are lossless, re-encoding
is idempotent, single-byte corruption never passes verification, and the
S2 SPAN state machine stays synchronised across reordering within its
window.  Everything is plain ``random.Random`` with fixed seeds — no
third-party property-testing dependency, fully deterministic.
"""

import random

import pytest

from repro.errors import AuthenticationError, ChecksumError, FrameError, NonceError
from repro.security.s2 import ENTROPY_SIZE, S2Context, S2Encapsulated
from repro.zwave import constants as const
from repro.zwave.frame import ZWaveFrame

N_CASES = 500


def random_frame(rng: random.Random) -> ZWaveFrame:
    """Draw one arbitrary-but-valid frame from the full field space."""
    payload_len = rng.randrange(0, const.MAX_APL_PAYLOAD_SIZE + 1)
    return ZWaveFrame(
        home_id=rng.randrange(0, 0x1_0000_0000),
        src=rng.randrange(0, 0x100),
        dst=rng.randrange(0, 0x100),
        payload=bytes(rng.randrange(0x100) for _ in range(payload_len)),
        header_type=rng.choice(
            (const.HeaderType.SINGLECAST, const.HeaderType.MULTICAST,
             const.HeaderType.ACK, const.HeaderType.ROUTED)
        ),
        ack_request=rng.random() < 0.5,
        low_power=rng.random() < 0.5,
        speed_modified=rng.random() < 0.5,
        routed=rng.random() < 0.5,
        sequence=rng.randrange(0, 0x10),
    )


class TestFrameCodecProperties:
    def test_encode_decode_roundtrip(self):
        rng = random.Random(0xF4A3E)
        for _ in range(N_CASES):
            frame = random_frame(rng)
            decoded = ZWaveFrame.decode(frame.encode(), verify=True)
            assert decoded == frame
            # Every application-layer view survives the round trip too.
            assert decoded.cmdcl == frame.cmdcl
            assert decoded.cmd == frame.cmd

    def test_reencode_is_idempotent(self):
        rng = random.Random(0xBEEF)
        for _ in range(N_CASES):
            raw = random_frame(rng).encode()
            assert ZWaveFrame.decode(raw).encode() == raw

    def test_length_field_counts_whole_frame(self):
        rng = random.Random(3)
        for _ in range(100):
            frame = random_frame(rng)
            assert frame.length == len(frame.encode())

    def test_single_byte_corruption_never_verifies(self):
        # CS-8 is a byte-wise XOR: any single-byte change must be caught
        # by the checksum (or first by the LEN consistency check).
        rng = random.Random(0xC0DE)
        for _ in range(N_CASES):
            raw = bytearray(random_frame(rng).encode())
            index = rng.randrange(len(raw))
            flip = rng.randrange(1, 0x100)
            raw[index] ^= flip
            with pytest.raises((ChecksumError, FrameError)):
                ZWaveFrame.decode(bytes(raw), verify=True)

    def test_lenient_decode_accepts_corruption(self):
        # The sniffer path must show malformed frames rather than drop
        # them — same corruption, verify=False, no exception.
        rng = random.Random(0xD15C)
        for _ in range(200):
            raw = bytearray(random_frame(rng).encode())
            raw[rng.randrange(len(raw))] ^= rng.randrange(1, 0x100)
            # LEN corruption may shear the payload, but decoding succeeds.
            ZWaveFrame.decode(bytes(raw), verify=False)


def s2_pair(seed: int):
    """Two S2 contexts sharing a key with SPANs established both ways."""
    rng = random.Random(seed)
    key = bytes(rng.randrange(0x100) for _ in range(16))
    alice = S2Context(key, node_id=1, rng=random.Random(seed + 1))
    bob = S2Context(key, node_id=2, rng=random.Random(seed + 2))
    ea = alice.generate_entropy(2)
    eb = bob.generate_entropy(1)
    alice.establish_span(2, ea, eb, inbound=False)
    bob.establish_span(1, ea, eb, inbound=True)
    bob.establish_span(1, eb, ea, inbound=False)
    alice.establish_span(2, eb, ea, inbound=True)
    return alice, bob, rng


class TestS2EncapsulationProperties:
    def test_encap_decap_roundtrip(self):
        alice, bob, rng = s2_pair(101)
        for _ in range(N_CASES):
            plaintext = bytes(
                rng.randrange(0x100) for _ in range(rng.randrange(0, 40))
            )
            encap = alice.encapsulate(plaintext, peer=2, src=1, dst=2,
                                      home_id=0xC0FFEE00)
            assert bob.decapsulate(encap, peer=1, src=1, dst=2,
                                   home_id=0xC0FFEE00) == plaintext

    def test_wire_codec_roundtrip(self):
        alice, _, rng = s2_pair(202)
        for _ in range(200):
            encap = alice.encapsulate(
                bytes(rng.randrange(0x100) for _ in range(rng.randrange(0, 40))),
                peer=2, src=1, dst=2, home_id=0xC0FFEE00,
            )
            assert S2Encapsulated.decode(encap.encode()) == encap

    def test_tampered_blob_never_decrypts(self):
        alice, bob, rng = s2_pair(303)
        for _ in range(100):
            encap = alice.encapsulate(b"lock the door", peer=2, src=1, dst=2,
                                      home_id=0xC0FFEE00)
            blob = bytearray(encap.blob)
            blob[rng.randrange(len(blob))] ^= rng.randrange(1, 0x100)
            bad = S2Encapsulated(encap.seq_no, encap.extensions, bytes(blob))
            with pytest.raises((AuthenticationError, NonceError)):
                bob.decapsulate(bad, peer=1, src=1, dst=2, home_id=0xC0FFEE00)
            # The failed attempt must not desynchronise the SPAN.
            good = alice.encapsulate(b"still in sync", peer=2, src=1, dst=2,
                                     home_id=0xC0FFEE00)
            assert bob.decapsulate(good, peer=1, src=1, dst=2,
                                   home_id=0xC0FFEE00) == b"still in sync"

    def test_aad_binds_the_clear_header(self):
        # Replaying a valid encapsulation under different MAC-header
        # coordinates must fail: src/dst/home-id are authenticated data.
        alice, bob, _ = s2_pair(404)
        encap = alice.encapsulate(b"unlock", peer=2, src=1, dst=2,
                                  home_id=0xC0FFEE00)
        with pytest.raises((AuthenticationError, NonceError)):
            bob.decapsulate(encap, peer=1, src=3, dst=2, home_id=0xC0FFEE00)

    def test_loss_tolerance_within_span_window(self):
        # Dropping up to SPAN_WINDOW-1 messages still decrypts the next
        # one; the window resynchronises the counter.
        for dropped in range(S2Context.SPAN_WINDOW):
            alice, bob, _ = s2_pair(500 + dropped)
            for _ in range(dropped):
                alice.encapsulate(b"lost on air", peer=2, src=1, dst=2,
                                  home_id=0xC0FFEE00)
            encap = alice.encapsulate(b"arrives", peer=2, src=1, dst=2,
                                      home_id=0xC0FFEE00)
            assert bob.decapsulate(encap, peer=1, src=1, dst=2,
                                   home_id=0xC0FFEE00) == b"arrives"

    def test_loss_beyond_window_desynchronises(self):
        alice, bob, _ = s2_pair(606)
        for _ in range(S2Context.SPAN_WINDOW + 1):
            alice.encapsulate(b"lost", peer=2, src=1, dst=2, home_id=0xC0FFEE00)
        encap = alice.encapsulate(b"too late", peer=2, src=1, dst=2,
                                  home_id=0xC0FFEE00)
        with pytest.raises(NonceError):
            bob.decapsulate(encap, peer=1, src=1, dst=2, home_id=0xC0FFEE00)

    def test_entropy_size_invariant(self):
        alice, _, _ = s2_pair(707)
        assert len(alice.generate_entropy(9)) == ENTROPY_SIZE
