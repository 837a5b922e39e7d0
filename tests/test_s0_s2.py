"""Tests for the S0 and S2 transport encapsulations."""

import random

import pytest

from repro.errors import AuthenticationError, NonceError
from repro.security.s0 import NONCE_TABLE_SIZE, S0Context, S0Encapsulated, TEMP_KEY
from repro.security.s2 import (
    S2Bootstrap,
    S2Context,
    S2Encapsulated,
    SpanState,
)
from repro.security.kdf import ckdf_expand
from repro.simulator.transport import S0Messaging, S2Messaging, TransportStats
from repro.zwave.application import ApplicationPayload

KEY = b"NetworkKey123456"


def s0_pair(seed=1):
    rng = random.Random(seed)
    return S0Context(KEY, rng), S0Context(KEY, random.Random(seed + 1))


class TestS0Nonces:
    def test_issue_returns_8_bytes(self):
        ctx, _ = s0_pair()
        assert len(ctx.issue_nonce()) == 8

    def test_consume_forgets(self):
        ctx, _ = s0_pair()
        nonce = ctx.issue_nonce()
        assert ctx.consume_nonce(nonce[0]) == nonce
        with pytest.raises(NonceError):
            ctx.consume_nonce(nonce[0])

    def test_unknown_nonce_id_raises(self):
        ctx, _ = s0_pair()
        with pytest.raises(NonceError):
            ctx.consume_nonce(0x42)

    def test_table_bounded(self):
        ctx, _ = s0_pair()
        for _ in range(NONCE_TABLE_SIZE * 2):
            ctx.issue_nonce()
        assert ctx.outstanding_nonces <= NONCE_TABLE_SIZE


class TestS0Encapsulation:
    def test_roundtrip(self):
        sender, receiver = s0_pair()
        nonce = receiver.issue_nonce()
        encap = sender.encapsulate(b"open the door", nonce, src=15, dst=1)
        assert receiver.decapsulate(encap, src=15, dst=1) == b"open the door"

    def test_wire_codec_roundtrip(self):
        sender, receiver = s0_pair()
        nonce = receiver.issue_nonce()
        encap = sender.encapsulate(b"payload", nonce, 2, 1)
        parsed = S0Encapsulated.decode(encap.encode())
        assert parsed == encap

    def test_decode_too_short_raises(self):
        with pytest.raises(AuthenticationError):
            S0Encapsulated.decode(b"short")

    def test_tampered_ciphertext_rejected(self):
        sender, receiver = s0_pair()
        nonce = receiver.issue_nonce()
        encap = sender.encapsulate(b"payload", nonce, 2, 1)
        bad = S0Encapsulated(
            encap.sender_nonce,
            bytes([encap.ciphertext[0] ^ 1]) + encap.ciphertext[1:],
            encap.receiver_nonce_id,
            encap.mac,
        )
        with pytest.raises(AuthenticationError):
            receiver.decapsulate(bad, 2, 1)

    def test_wrong_addresses_rejected(self):
        sender, receiver = s0_pair()
        nonce = receiver.issue_nonce()
        encap = sender.encapsulate(b"payload", nonce, 2, 1)
        with pytest.raises(AuthenticationError):
            receiver.decapsulate(encap, 3, 1)

    def test_replay_rejected_after_nonce_consumed(self):
        sender, receiver = s0_pair()
        nonce = receiver.issue_nonce()
        encap = sender.encapsulate(b"payload", nonce, 2, 1)
        receiver.decapsulate(encap, 2, 1)
        with pytest.raises(NonceError):
            receiver.decapsulate(encap, 2, 1)

    def test_wrong_key_rejected(self):
        sender, _ = s0_pair()
        other = S0Context(b"DifferentKey0000", random.Random(9))
        nonce = other.issue_nonce()
        encap = sender.encapsulate(b"payload", nonce, 2, 1)
        with pytest.raises(AuthenticationError):
            other.decapsulate(encap, 2, 1)

    def test_temp_key_is_all_zero(self):
        # The S0 inclusion weakness: the temporary key is fixed.
        assert TEMP_KEY == bytes(16)


def span_pair(seed=5):
    a = S2Context(KEY, node_id=2, rng=random.Random(seed))
    b = S2Context(KEY, node_id=1, rng=random.Random(seed + 1))
    ea = a.generate_entropy(1)
    eb = b.generate_entropy(2)
    a.establish_span(1, ea, eb, inbound=False)
    b.establish_span(2, ea, eb, inbound=True)
    return a, b


class TestSpan:
    def test_same_inputs_same_nonces(self):
        keys = ckdf_expand(KEY)
        one = SpanState(keys.personalization, b"a" * 16, b"b" * 16)
        two = SpanState(keys.personalization, b"a" * 16, b"b" * 16)
        assert [one.next_nonce() for _ in range(5)] == [two.next_nonce() for _ in range(5)]

    def test_nonces_never_repeat_in_sequence(self):
        keys = ckdf_expand(KEY)
        span = SpanState(keys.personalization, b"a" * 16, b"b" * 16)
        nonces = [span.next_nonce() for _ in range(64)]
        assert len(set(nonces)) == 64

    def test_peek_does_not_advance(self):
        keys = ckdf_expand(KEY)
        span = SpanState(keys.personalization, b"a" * 16, b"b" * 16)
        peeked = span.peek_nonce()
        assert span.peek_nonce() == peeked
        assert span.next_nonce() == peeked

    def test_bad_entropy_size_rejected(self):
        keys = ckdf_expand(KEY)
        with pytest.raises(NonceError):
            SpanState(keys.personalization, b"short", b"b" * 16)


class TestS2Encapsulation:
    HOME = 0xE7DE3F3D

    def test_roundtrip(self):
        a, b = span_pair()
        encap = a.encapsulate(b"lock the door", peer=1, src=2, dst=1, home_id=self.HOME)
        assert b.decapsulate(encap, peer=2, src=2, dst=1, home_id=self.HOME) == b"lock the door"

    def test_wire_codec(self):
        a, b = span_pair()
        encap = a.encapsulate(b"x", 1, 2, 1, self.HOME)
        assert S2Encapsulated.decode(encap.encode()) == encap

    def test_decode_too_short(self):
        with pytest.raises(AuthenticationError):
            S2Encapsulated.decode(b"\x01")

    def test_sequence_increments(self):
        a, b = span_pair()
        first = a.encapsulate(b"x", 1, 2, 1, self.HOME)
        second = a.encapsulate(b"y", 1, 2, 1, self.HOME)
        assert second.seq_no == (first.seq_no + 1) % 256
        assert b.decapsulate(first, 2, 2, 1, self.HOME) == b"x"
        assert b.decapsulate(second, 2, 2, 1, self.HOME) == b"y"

    def test_lost_frames_tolerated_within_window(self):
        a, b = span_pair()
        a.encapsulate(b"lost", 1, 2, 1, self.HOME)  # never delivered
        encap = a.encapsulate(b"arrives", 1, 2, 1, self.HOME)
        assert b.decapsulate(encap, 2, 2, 1, self.HOME) == b"arrives"

    def test_desync_beyond_window_raises(self):
        a, b = span_pair()
        for _ in range(S2Context.SPAN_WINDOW + 1):
            a.encapsulate(b"lost", 1, 2, 1, self.HOME)
        encap = a.encapsulate(b"late", 1, 2, 1, self.HOME)
        with pytest.raises(NonceError):
            b.decapsulate(encap, 2, 2, 1, self.HOME)

    def test_no_span_raises(self):
        ctx = S2Context(KEY, node_id=1)
        with pytest.raises(NonceError):
            ctx.encapsulate(b"x", 5, 1, 5, self.HOME)
        with pytest.raises(NonceError):
            ctx.decapsulate(S2Encapsulated(0, 0, b"\x00" * 10), 5, 5, 1, self.HOME)

    def test_aad_binds_addresses(self):
        a, b = span_pair()
        encap = a.encapsulate(b"payload", 1, 2, 1, self.HOME)
        with pytest.raises(NonceError):
            b.decapsulate(encap, 2, 7, 1, self.HOME)  # spoofed src

    def test_aad_binds_home_id(self):
        a, b = span_pair()
        encap = a.encapsulate(b"payload", 1, 2, 1, self.HOME)
        with pytest.raises(NonceError):
            b.decapsulate(encap, 2, 2, 1, 0xDEADBEEF)

    def test_reset_spans(self):
        a, b = span_pair()
        a.reset_spans()
        with pytest.raises(NonceError):
            a.encapsulate(b"x", 1, 2, 1, self.HOME)


class TestS2Bootstrap:
    def test_temp_keys_agree(self):
        alice = S2Bootstrap(random.Random(1))
        bob = S2Bootstrap(random.Random(2))
        assert alice.derive_temp_key(bob.public, initiator=True) == bob.derive_temp_key(
            alice.public, initiator=False
        )

    def test_dsk_pin_is_16_bits(self):
        boot = S2Bootstrap(random.Random(3))
        assert 0 <= boot.dsk_pin <= 0xFFFF

    def test_network_key_generation(self):
        key = S2Bootstrap(random.Random(4)).public
        assert len(key) == 32
        assert key == S2Bootstrap(random.Random(4)).public
        assert key != S2Bootstrap(random.Random(5)).public


class TestSpanDesyncRecovery:
    """How the S2 SPAN machinery behaves *around* a desynchronisation —
    the session fuzzer's SV06 (nonce-entropy reuse) rests on these
    semantics staying exact."""

    HOME = 0xE7DE3F3D

    def test_failed_window_search_does_not_advance_the_span(self):
        # A forged frame that verifies nowhere in the window must leave
        # the receiver state untouched: the next genuine frame decodes.
        a, b = span_pair()
        genuine = a.encapsulate(b"genuine", 1, 2, 1, self.HOME)
        with pytest.raises(NonceError):
            b.decapsulate(S2Encapsulated(0, 0, b"\x00" * 12), 2, 2, 1, self.HOME)
        assert b.decapsulate(genuine, 2, 2, 1, self.HOME) == b"genuine"

    def test_fresh_entropy_exchange_recovers_from_desync(self):
        a, b = span_pair()
        for _ in range(S2Context.SPAN_WINDOW + 1):
            a.encapsulate(b"lost", 1, 2, 1, self.HOME)
        with pytest.raises(NonceError):
            b.decapsulate(
                a.encapsulate(b"late", 1, 2, 1, self.HOME), 2, 2, 1, self.HOME
            )
        # The spec's resynchronisation path: a fresh nonce-report exchange
        # instantiates new SPANs and traffic flows again.
        ea = a.generate_entropy(1)
        eb = b.generate_entropy(2)
        a.establish_span(1, ea, eb, inbound=False)
        b.establish_span(2, ea, eb, inbound=True)
        encap = a.encapsulate(b"resynced", 1, 2, 1, self.HOME)
        assert b.decapsulate(encap, 2, 2, 1, self.HOME) == b"resynced"

    def test_reset_spans_forces_a_full_handshake(self):
        a, b = span_pair()
        stale = a.encapsulate(b"stale", 1, 2, 1, self.HOME)
        b.reset_spans()
        assert not b.has_span(2, inbound=True)
        assert b.pending_entropy(2) is None
        with pytest.raises(NonceError):
            b.decapsulate(stale, 2, 2, 1, self.HOME)

    def test_recovery_spans_do_not_reuse_old_entropy(self):
        # generate_entropy after a desync must draw *new* randomness —
        # reusing the handshake entropy is exactly planted bug SV06.
        a = S2Context(KEY, node_id=2, rng=random.Random(11))
        first = a.generate_entropy(1)
        second = a.generate_entropy(1)
        assert first != second


class TestUndecodableInnerPayload:
    """An encapsulation that verifies but holds no decodable payload is
    consumed silently: counted as received, never delivered."""

    HOME = 0xE7DE3F3D

    def _endpoint(self, messaging, context, **kwargs):
        delivered = []
        endpoint = messaging(
            context, node_id=1, send=lambda dst, payload: None,
            deliver=lambda src, inner: delivered.append(inner), **kwargs
        )
        return endpoint, delivered

    def test_s2_empty_inner_consumed(self):
        sender, receiver = span_pair()
        endpoint, delivered = self._endpoint(S2Messaging, receiver, home_id=self.HOME)
        encap = sender.encapsulate(b"", peer=1, src=2, dst=1, home_id=self.HOME)
        assert endpoint.handle(2, ApplicationPayload(0x9F, 0x03, encap.encode()))
        assert delivered == []
        assert endpoint.stats == TransportStats(received_encapsulated=1)

    def test_s0_empty_inner_consumed(self):
        sender, receiver = s0_pair()
        endpoint, delivered = self._endpoint(S0Messaging, receiver)
        encap = sender.encapsulate(b"", receiver.issue_nonce(), src=2, dst=1)
        assert endpoint.handle(2, ApplicationPayload(0x98, 0x81, encap.encode()))
        assert delivered == []
        assert endpoint.stats == TransportStats(received_encapsulated=1)
