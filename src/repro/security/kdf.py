"""CKDF — the CMAC-based key derivation used by Z-Wave S2.

S2 expands the ECDH shared secret into the temporary key during inclusion
and expands each 16-byte network key into the triplet used on the wire:

* the CCM encryption key,
* the personalisation string for the SPAN nonce generator, and
* the MPAN key for multicast.

The construction follows the S2 specification's CKDF-TempExtract /
CKDF-Expand shape: AES-CMAC under fixed-constant messages, making every
derived key a deterministic function of its parent.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import Tuple

from ..errors import CryptoError
from .aes import AES128
from .ccm import Ccm
from .cmac import Cmac, aes_cmac

#: Constants from the S2 key-derivation schedule.
_TEMP_EXTRACT_CONST = b"\x33" * 16
_CCM_KEY_CONST = b"\x88"
_NONCE_PS_CONST = b"\x88"
_MPAN_CONST = b"\x88"


def ckdf_temp_extract(shared_secret: bytes, pub_a: bytes, pub_b: bytes) -> bytes:
    """Extract the temporary inclusion key from an ECDH exchange.

    ``PRK = CMAC(Const33, ECDH_secret | pub_a | pub_b)`` — binding the key
    to both public keys defeats unknown-key-share substitution.
    """
    if len(shared_secret) != 32:
        raise CryptoError("ECDH shared secret must be 32 bytes")
    return aes_cmac(_TEMP_EXTRACT_CONST, shared_secret + pub_a + pub_b)


@dataclass(frozen=True)
class ExpandedKeys:
    """The wire keys derived from one 16-byte network key.

    ``ccm`` and ``personalization`` are ready ciphers under ``ccm_key`` and
    ``nonce_personalization``.  Every S2 context and SPAN of one network key
    shares them through the memo below, so one key schedule serves them all.
    """

    ccm_key: bytes
    nonce_personalization: bytes
    mpan_key: bytes
    ccm: Ccm = field(compare=False, repr=False)
    personalization: Cmac = field(compare=False, repr=False)


@dataclass(frozen=True)
class S0Keys:
    """The S0 working keys derived from one network key, with their ciphers."""

    enc_key: bytes
    auth_key: bytes
    enc: AES128 = field(compare=False, repr=False)
    auth: AES128 = field(compare=False, repr=False)


def ckdf_expand(network_key: bytes) -> ExpandedKeys:
    """Expand a network key into its CCM / nonce / MPAN components."""
    return _network_keys(network_key)[0]


def s0_keys(network_key: bytes) -> S0Keys:
    """Derive the S0 encryption and authentication keys and their ciphers.

    S0 derives its two working keys by encrypting fixed 16-byte patterns
    under the network key; modelled here with CMAC for uniformity.
    """
    return _network_keys(network_key)[1]


def _network_keys(network_key: bytes) -> Tuple[ExpandedKeys, S0Keys]:
    if len(network_key) != 16:
        raise CryptoError(f"network key must be 16 bytes, got {len(network_key)}")
    return _derive(bytes(network_key))


# Derivations are pure functions of the network key, and a campaign batch
# builds hundreds of fresh SUTs over the same handful of keys, so both key
# sets are memoised together, ciphers included: one CMAC schedule of the
# network key serves the S2 expansion and the S0 pair.  The cache is
# least-recently-used and bounded, so a long-lived process that has seen
# many keys still hits on the ones it uses now.


@lru_cache(maxsize=64)
def _derive(key: bytes) -> Tuple[ExpandedKeys, S0Keys]:
    cmac = Cmac(key)
    t1 = cmac.tag(_CCM_KEY_CONST + b"\x00" * 14 + b"\x01")
    t2 = cmac.tag(t1 + _NONCE_PS_CONST + b"\x00" * 14 + b"\x02")
    t3 = cmac.tag(t2 + _MPAN_CONST + b"\x00" * 14 + b"\x03")
    enc, auth = cmac.tag(b"\xaa" * 16), cmac.tag(b"\x55" * 16)
    return (
        ExpandedKeys(
            ccm_key=t1, nonce_personalization=t2, mpan_key=t3, ccm=Ccm(t1), personalization=Cmac(t2)
        ),
        S0Keys(enc_key=enc, auth_key=auth, enc=AES128(enc), auth=AES128(auth)),
    )
