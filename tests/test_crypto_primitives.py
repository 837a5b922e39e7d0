"""Tests for CMAC (RFC 4493), CCM (RFC 3610-style), X25519 and the CKDF."""

import sys
import threading

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import AuthenticationError, CryptoError
from repro.security.ccm import (
    NONCE_LENGTH,
    RECORD_SIZE,
    TAG_LENGTH,
    Ccm,
    ccm_decrypt,
    ccm_encrypt,
)
from repro.security.cmac import aes_cmac, verify_cmac
from repro.security.curve25519 import public_key, shared_secret, x25519
from repro.security.kdf import ckdf_expand, ckdf_temp_extract, s0_keys

RFC4493_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")


class TestCmac:
    """RFC 4493 appendix vectors."""

    def test_empty_message(self):
        assert aes_cmac(RFC4493_KEY, b"") == bytes.fromhex(
            "bb1d6929e95937287fa37d129b756746"
        )

    def test_one_block(self):
        msg = bytes.fromhex("6bc1bee22e409f96e93d7e117393172a")
        assert aes_cmac(RFC4493_KEY, msg) == bytes.fromhex(
            "070a16b46b4d4144f79bdd9dd04a287c"
        )

    def test_40_bytes(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411"
        )
        assert aes_cmac(RFC4493_KEY, msg) == bytes.fromhex(
            "dfa66747de9ae63030ca32611497c827"
        )

    def test_four_blocks(self):
        msg = bytes.fromhex(
            "6bc1bee22e409f96e93d7e117393172a"
            "ae2d8a571e03ac9c9eb76fac45af8e51"
            "30c81c46a35ce411e5fbc1191a0a52ef"
            "f69f2445df4f9b17ad2b417be66c3710"
        )
        assert aes_cmac(RFC4493_KEY, msg) == bytes.fromhex(
            "51f0bebf7e3b9d92fc49741779363cfe"
        )

    def test_verify_accepts_and_rejects(self):
        tag = aes_cmac(RFC4493_KEY, b"msg")
        assert verify_cmac(RFC4493_KEY, b"msg", tag)
        assert not verify_cmac(RFC4493_KEY, b"msg", bytes(16))
        assert not verify_cmac(RFC4493_KEY, b"other", tag)

    def test_truncated_tag_verification(self):
        tag = aes_cmac(RFC4493_KEY, b"msg")[:8]
        assert verify_cmac(RFC4493_KEY, b"msg", tag, tag_length=8)
        assert not verify_cmac(RFC4493_KEY, b"msg", tag[:4], tag_length=8)

    def test_bad_tag_length_rejected(self):
        with pytest.raises(CryptoError):
            verify_cmac(RFC4493_KEY, b"msg", b"", tag_length=0)

    @given(st.binary(max_size=100))
    @settings(max_examples=20)
    def test_deterministic_and_16_bytes(self, msg):
        tag = aes_cmac(RFC4493_KEY, msg)
        assert len(tag) == 16
        assert tag == aes_cmac(RFC4493_KEY, msg)


class TestCcm:
    KEY = b"K" * 16
    NONCE = b"N" * NONCE_LENGTH
    AAD = b"\x01\x02\x03\x04\x05"

    def test_roundtrip(self):
        blob = ccm_encrypt(self.KEY, self.NONCE, self.AAD, b"plaintext payload")
        assert ccm_decrypt(self.KEY, self.NONCE, self.AAD, blob) == b"plaintext payload"

    def test_blob_carries_tag(self):
        blob = ccm_encrypt(self.KEY, self.NONCE, self.AAD, b"abc")
        assert len(blob) == 3 + TAG_LENGTH

    def test_tampered_ciphertext_rejected(self):
        blob = bytearray(ccm_encrypt(self.KEY, self.NONCE, self.AAD, b"payload"))
        blob[0] ^= 0x01
        with pytest.raises(AuthenticationError):
            ccm_decrypt(self.KEY, self.NONCE, self.AAD, bytes(blob))

    def test_tampered_tag_rejected(self):
        blob = bytearray(ccm_encrypt(self.KEY, self.NONCE, self.AAD, b"payload"))
        blob[-1] ^= 0x01
        with pytest.raises(AuthenticationError):
            ccm_decrypt(self.KEY, self.NONCE, self.AAD, bytes(blob))

    def test_wrong_aad_rejected(self):
        blob = ccm_encrypt(self.KEY, self.NONCE, self.AAD, b"payload")
        with pytest.raises(AuthenticationError):
            ccm_decrypt(self.KEY, self.NONCE, b"other aad", blob)

    def test_wrong_nonce_rejected(self):
        blob = ccm_encrypt(self.KEY, self.NONCE, self.AAD, b"payload")
        with pytest.raises(AuthenticationError):
            ccm_decrypt(self.KEY, b"M" * NONCE_LENGTH, self.AAD, blob)

    def test_empty_plaintext_authenticated(self):
        blob = ccm_encrypt(self.KEY, self.NONCE, self.AAD, b"")
        assert ccm_decrypt(self.KEY, self.NONCE, self.AAD, blob) == b""

    def test_empty_aad(self):
        blob = ccm_encrypt(self.KEY, self.NONCE, b"", b"data")
        assert ccm_decrypt(self.KEY, self.NONCE, b"", blob) == b"data"

    def test_short_blob_rejected(self):
        with pytest.raises(AuthenticationError):
            ccm_decrypt(self.KEY, self.NONCE, b"", b"short")

    def test_bad_nonce_length_rejected(self):
        with pytest.raises(CryptoError):
            ccm_encrypt(self.KEY, b"short", b"", b"data")

    @given(st.binary(max_size=60), st.binary(max_size=20))
    @settings(max_examples=20)
    def test_roundtrip_property(self, plaintext, aad):
        blob = ccm_encrypt(self.KEY, self.NONCE, aad, plaintext)
        assert ccm_decrypt(self.KEY, self.NONCE, aad, blob) == plaintext

    # RFC 3610 packet vectors #1-#3: the S2 parameters (M=8, L=2, 13-byte
    # nonce), key C0..CF, eight bytes of additional data 00..07, payload
    # from 08 up.
    RFC3610_KEY = bytes(range(0xC0, 0xD0))
    RFC3610_AAD = bytes(range(8))

    @pytest.mark.parametrize(
        "nonce, last, output",
        [
            (
                "00000003020100a0a1a2a3a4a5",
                0x1E,
                "588c979a61c663d2f066d0c2c0f989806d5f6b61dac38417e8d12cfdf926e0",
            ),
            (
                "00000004030201a0a1a2a3a4a5",
                0x1F,
                "72c91a36e135f8cf291ca894085c87e3cc15c439c9e43a3ba091d56e10400916",
            ),
            (
                "00000005040302a0a1a2a3a4a5",
                0x20,
                "51b1e5f44a197d1da46b0f8e2d282ae871e838bb64da8596574adaa76fbd9fb0c5",
            ),
        ],
    )
    def test_rfc3610_packet_vectors(self, nonce, last, output):
        nonce, output = bytes.fromhex(nonce), bytes.fromhex(output)
        plaintext = bytes(range(0x08, last + 1))
        assert ccm_encrypt(self.RFC3610_KEY, nonce, self.RFC3610_AAD, plaintext) == output
        assert ccm_decrypt(self.RFC3610_KEY, nonce, self.RFC3610_AAD, output) == plaintext


def _open_outcome(ccm, nonce, aad, blob):
    """What ``ccm.open`` returns, or the error class it raises."""
    try:
        return ccm.open(nonce, aad, blob)
    except AuthenticationError:
        return AuthenticationError


def _flips(data, mask):
    """*data* with each single byte XORed by *mask* in turn."""
    for index in range(len(data)):
        yield data[:index] + bytes([data[index] ^ mask]) + data[index + 1 :]


class TestCcmSealRecord:
    """An open served from the seal record equals the full CTR + MAC check."""

    @given(
        key=st.binary(min_size=16, max_size=16),
        nonce=st.binary(min_size=NONCE_LENGTH, max_size=NONCE_LENGTH),
        aad=st.binary(max_size=20),
        plaintext=st.binary(max_size=40),
        mask=st.integers(min_value=1, max_value=255),
    )
    @settings(max_examples=40, deadline=None)
    def test_record_agrees_with_full_check(self, key, nonce, aad, plaintext, mask):
        sealer, fresh = Ccm(key), Ccm(key)
        blob = sealer.seal(nonce, aad, plaintext)
        # The exact triple is served from the record: the sealed object itself.
        assert sealer.open(nonce, aad, blob) is plaintext
        assert fresh.open(nonce, aad, blob) == plaintext
        variants = (
            [(n, aad, blob) for n in _flips(nonce, mask)]
            + [(nonce, a, blob) for a in _flips(aad, mask)]
            + [(nonce, aad, b) for b in _flips(blob, mask)]
        )
        for args in variants:
            assert _open_outcome(sealer, *args) == _open_outcome(Ccm(key), *args)

    def test_seal_under_one_key_never_opens_under_another(self):
        nonce, aad = b"N" * NONCE_LENGTH, b"aad"
        one, other = Ccm(b"A" * 16), Ccm(b"B" * 16)
        other.seal(nonce, aad, b"payload")
        blob = one.seal(nonce, aad, b"payload")
        with pytest.raises(AuthenticationError):
            other.open(nonce, aad, blob)

    def test_record_stays_bounded(self):
        ccm = Ccm(b"K" * 16)
        sealed = []
        for index in range(3 * RECORD_SIZE):
            nonce = index.to_bytes(NONCE_LENGTH, "big")
            sealed.append((nonce, ccm.seal(nonce, b"", bytes([index]))))
            assert len(ccm._record) <= RECORD_SIZE
        # Entries that rolled off still open, through the full check.
        for index, (nonce, blob) in enumerate(sealed):
            assert ccm.open(nonce, b"", blob) == bytes([index])

    def test_threads_sharing_one_ccm_open_only_what_was_sealed(self):
        # Concurrent seals may drop record entries; an open must still
        # return exactly the sealed plaintext, or fail on a foreign nonce.
        ccm = Ccm(b"T" * 16)
        errors = []

        def worker(index):
            try:
                for step in range(25):
                    nonce = bytes([index, step]) + bytes(NONCE_LENGTH - 2)
                    plaintext = bytes([index, step, 0x5A])
                    blob = ccm.seal(nonce, b"aad", plaintext)
                    if ccm.open(nonce, b"aad", blob) != plaintext:
                        errors.append(("wrong plaintext", index, step))
                    foreign = bytes([index + 100, step]) + bytes(NONCE_LENGTH - 2)
                    if _open_outcome(ccm, foreign, b"aad", blob) is not AuthenticationError:
                        errors.append(("foreign nonce opened", index, step))
            except Exception as exc:  # surfaced through the assertion below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(index,)) for index in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert len(ccm._record) <= RECORD_SIZE


class TestX25519:
    def test_rfc7748_vector_one(self):
        k = bytes.fromhex(
            "a546e36bf0527c9d3b16154b82465edd62144c0ac1fc5a18506a2244ba449ac4"
        )
        u = bytes.fromhex(
            "e6db6867583030db3594c1a424b15f7c726624ec26b3353b10a903a6d0ab1c4c"
        )
        expected = bytes.fromhex(
            "c3da55379de9c6908e94ea4df28d084f32eccf03491c71f754b4075577a28552"
        )
        assert x25519(k, u) == expected

    def test_rfc7748_vector_two(self):
        k = bytes.fromhex(
            "4b66e9d4d1b4673c5ad22691957d6af5c11b6421e0ea01d42ca4169e7918ba0d"
        )
        u = bytes.fromhex(
            "e5210f12786811d3f4b7959d0538ae2c31dbe7106fc03c3efc4cd549c715a493"
        )
        expected = bytes.fromhex(
            "95cbde9476e8907d7aade45cb4b873f88b595a68799fa152e6f8f7647aac7957"
        )
        assert x25519(k, u) == expected

    def test_dh_commutativity(self):
        alice = b"\x11" * 32
        bob = b"\x22" * 32
        assert shared_secret(alice, public_key(bob)) == shared_secret(
            bob, public_key(alice)
        )

    def test_bad_sizes_rejected(self):
        with pytest.raises(CryptoError):
            x25519(b"short", b"\x00" * 32)
        with pytest.raises(CryptoError):
            x25519(b"\x00" * 32, b"short")

    @given(st.binary(min_size=32, max_size=32), st.binary(min_size=32, max_size=32))
    @settings(max_examples=10)
    def test_dh_commutativity_property(self, a, b):
        assert x25519(a, public_key(b)) == x25519(b, public_key(a))


class TestKdf:
    def test_expand_produces_three_distinct_keys(self):
        keys = ckdf_expand(b"\x42" * 16)
        triple = {keys.ccm_key, keys.nonce_personalization, keys.mpan_key}
        assert len(triple) == 3
        assert all(len(k) == 16 for k in triple)

    def test_expand_deterministic(self):
        assert ckdf_expand(b"k" * 16) == ckdf_expand(b"k" * 16)

    def test_expand_key_separation(self):
        assert ckdf_expand(b"a" * 16).ccm_key != ckdf_expand(b"b" * 16).ccm_key

    def test_expand_rejects_bad_key(self):
        with pytest.raises(CryptoError):
            ckdf_expand(b"short")

    def test_temp_extract_binds_public_keys(self):
        secret = b"\x01" * 32
        one = ckdf_temp_extract(secret, b"A" * 32, b"B" * 32)
        two = ckdf_temp_extract(secret, b"B" * 32, b"A" * 32)
        assert one != two

    def test_temp_extract_rejects_bad_secret(self):
        with pytest.raises(CryptoError):
            ckdf_temp_extract(b"short", b"A" * 32, b"B" * 32)

    def test_s0_keys_distinct(self):
        keys = s0_keys(b"\x13" * 16)
        assert keys.enc_key != keys.auth_key
        assert len(keys.enc_key) == len(keys.auth_key) == 16

    def test_s0_keys_reject_bad_size(self):
        with pytest.raises(CryptoError):
            s0_keys(b"tiny")

    def test_caches_evict_least_recently_used(self):
        # Past 64 distinct keys the oldest entry is evicted and recomputed,
        # not frozen out: every key keeps its derivation and the cache stays bounded.
        from repro.security import kdf

        keys = [i.to_bytes(2, "big") * 8 for i in range(70)]
        first_expand, first_s0 = ckdf_expand(keys[0]), s0_keys(keys[0])
        for key in keys[1:]:
            ckdf_expand(key)
            s0_keys(key)
        misses = kdf._derive.cache_info().misses
        assert ckdf_expand(keys[0]) == first_expand
        assert kdf._derive.cache_info().misses == misses + 1
        # Both key sets come from one entry: the S0 pair is not derived again.
        assert s0_keys(keys[0]) == first_s0
        assert kdf._derive.cache_info().misses == misses + 1
        assert kdf._derive.cache_info().currsize <= 64
