"""Radio substrate: simulated clock, PHY signal codec, RF medium, dongle.

Substitutes for the paper's YardStick One SDR and the physical 868/908 MHz
channel (see DESIGN.md for the substitution rationale).
"""

from .clock import SimClock
from .medium import (
    RadioMedium,
    Reception,
    loss_probability,
    received_power_dbm,
)
from .signal import (
    airtime_seconds,
    bits_to_bytes,
    bytes_to_bits,
    decode_phy,
    encode_phy,
    manchester_decode,
    manchester_encode,
)
from .trace import TraceRecord, dissect, dissect_trace, load_trace, save_trace
from .transceiver import CapturedFrame, Transceiver

__all__ = [
    "airtime_seconds",
    "bits_to_bytes",
    "bytes_to_bits",
    "CapturedFrame",
    "decode_phy",
    "encode_phy",
    "loss_probability",
    "manchester_decode",
    "manchester_encode",
    "RadioMedium",
    "received_power_dbm",
    "Reception",
    "SimClock",
    "TraceRecord",
    "dissect",
    "dissect_trace",
    "load_trace",
    "save_trace",
    "Transceiver",
]
