"""Security substrate: AES-128, CMAC, CCM, Curve25519, S0 and S2 transports.

Implements the three Z-Wave transport encapsulation modes of Section II-A1
of the paper (No Security / S0 / S2) on top of from-scratch primitives.
"""

from .aes import AES128
from .ccm import Ccm, ccm_decrypt, ccm_encrypt
from .cmac import aes_cmac
from .curve25519 import public_key, shared_secret, x25519
from .kdf import ExpandedKeys, S0Keys, ckdf_expand, ckdf_temp_extract, s0_keys
from .s0 import S0Context, S0Encapsulated, TEMP_KEY
from .s2 import (
    S2Bootstrap,
    S2Context,
    S2Encapsulated,
    SpanState,
)

__all__ = [
    "AES128",
    "aes_cmac",
    "Ccm",
    "ccm_decrypt",
    "ccm_encrypt",
    "ckdf_expand",
    "ckdf_temp_extract",
    "ExpandedKeys",
    "public_key",
    "S0Context",
    "S0Encapsulated",
    "S0Keys",
    "s0_keys",
    "S2Bootstrap",
    "S2Context",
    "S2Encapsulated",
    "shared_secret",
    "SpanState",
    "TEMP_KEY",
    "x25519",
]
