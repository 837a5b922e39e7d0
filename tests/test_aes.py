"""Tests for the pure-Python AES-128 implementation."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CryptoError
from repro.security.aes import AES128, INV_SBOX, SBOX, expand_key

KEY = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
FIPS_PT = bytes.fromhex("00112233445566778899aabbccddeeff")
FIPS_CT = bytes.fromhex("69c4e0d86a7b0430d8cdb78070b4c55a")


class TestTables:
    def test_sbox_known_values(self):
        # FIPS-197 Figure 7 landmarks.
        assert SBOX[0x00] == 0x63
        assert SBOX[0x01] == 0x7C
        assert SBOX[0x53] == 0xED
        assert SBOX[0xFF] == 0x16

    def test_sbox_is_permutation(self):
        assert sorted(SBOX) == list(range(256))

    def test_inverse_sbox(self):
        assert all(INV_SBOX[SBOX[i]] == i for i in range(256))


class TestKeySchedule:
    def test_eleven_round_keys(self):
        keys = expand_key(KEY)
        assert len(keys) == 11
        assert all(len(rk) == 16 for rk in keys)

    def test_round_zero_is_key(self):
        assert bytes(expand_key(KEY)[0]) == KEY

    def test_fips_appendix_a_last_word(self):
        # Expanded key of the FIPS-197 A.1 example ends in b6 63 0c a6.
        keys = expand_key(bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c"))
        assert bytes(keys[10][12:16]) == bytes.fromhex("b6630ca6")

    def test_wrong_key_size_rejected(self):
        with pytest.raises(CryptoError):
            expand_key(b"short")


class TestBlockCipher:
    def test_fips_197_vector(self):
        assert AES128(KEY).encrypt_block(FIPS_PT) == FIPS_CT

    def test_decrypt_inverts(self):
        assert AES128(KEY).decrypt_block(FIPS_CT) == FIPS_PT

    def test_wrong_block_size_rejected(self):
        cipher = AES128(KEY)
        with pytest.raises(CryptoError):
            cipher.encrypt_block(b"short")
        with pytest.raises(CryptoError):
            cipher.decrypt_block(b"x" * 17)

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=25)
    def test_encrypt_decrypt_roundtrip(self, key, block):
        cipher = AES128(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block

    def test_different_keys_differ(self):
        assert AES128(KEY).encrypt_block(FIPS_PT) != AES128(b"\x01" * 16).encrypt_block(FIPS_PT)


class TestModes:
    def test_ofb_roundtrip(self):
        cipher = AES128(KEY)
        iv = bytes(range(16))
        data = b"Z-Wave S0 payload bytes over one block"
        assert cipher.decrypt_ofb(iv, cipher.encrypt_ofb(iv, data)) == data

    def test_ofb_is_involution(self):
        cipher = AES128(KEY)
        iv = b"\xaa" * 16
        ct = cipher.encrypt_ofb(iv, b"secret")
        assert cipher.encrypt_ofb(iv, ct) == b"secret"

    def test_ofb_requires_16_byte_iv(self):
        with pytest.raises(CryptoError):
            AES128(KEY).encrypt_ofb(b"short", b"data")

    def test_ctr_roundtrip(self):
        cipher = AES128(KEY)
        nonce = b"\x01" * 16
        data = b"counter mode data spanning blocks!" * 2
        assert cipher.decrypt_ctr(nonce, cipher.encrypt_ctr(nonce, data)) == data

    def test_ctr_counter_wraps(self):
        cipher = AES128(KEY)
        nonce = b"\xff" * 16
        assert len(cipher.encrypt_ctr(nonce, b"x" * 48)) == 48

    def test_ctr_requires_16_byte_nonce(self):
        with pytest.raises(CryptoError):
            AES128(KEY).encrypt_ctr(b"", b"data")

    def test_cbc_mac_deterministic(self):
        cipher = AES128(KEY)
        assert cipher.cbc_mac(b"message") == cipher.cbc_mac(b"message")

    def test_cbc_mac_distinguishes(self):
        cipher = AES128(KEY)
        assert cipher.cbc_mac(b"message a") != cipher.cbc_mac(b"message b")

    def test_cbc_mac_empty(self):
        assert len(AES128(KEY).cbc_mac(b"")) == 16

    @given(st.binary(max_size=80))
    @settings(max_examples=25)
    def test_ofb_roundtrip_property(self, data):
        cipher = AES128(KEY)
        iv = b"\x42" * 16
        assert cipher.decrypt_ofb(iv, cipher.encrypt_ofb(iv, data)) == data


class TestTableKernel:
    """The T-table encryption against published vectors and the spec-form inverse."""

    SP800_38A_KEY = bytes.fromhex("2b7e151628aed2a6abf7158809cf4f3c")

    @pytest.mark.parametrize(
        "plaintext, ciphertext",
        [
            ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97"),
            ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf"),
            ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688"),
            ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4"),
        ],
    )
    def test_sp800_38a_ecb_vectors(self, plaintext, ciphertext):
        # NIST SP 800-38A F.1.1 ECB-AES128.Encrypt.
        cipher = AES128(self.SP800_38A_KEY)
        assert cipher.encrypt_block(bytes.fromhex(plaintext)) == bytes.fromhex(ciphertext)
        assert cipher.decrypt_block(bytes.fromhex(ciphertext)) == bytes.fromhex(plaintext)

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=16, max_size=16))
    @settings(max_examples=200)
    def test_spec_decrypt_inverts_table_encrypt(self, key, block):
        cipher = AES128(key)
        assert cipher.decrypt_block(cipher.encrypt_block(block)) == block
        assert cipher.encrypt_block(cipher.decrypt_block(block)) == block
