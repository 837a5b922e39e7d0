"""Capture traces: persist, reload and dissect sniffed Z-Wave traffic.

The hardware equivalent is the Silicon Labs Zniffer: a time-stamped log of
every frame on the air with a protocol dissection.  ZCover's passive
scanner, the IDS and the examples all consume live captures; this module
adds the offline half — JSON-lines trace files that survive the session
and a human-readable dissector for inspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Union

from ..wire import dump_lines, layout, load_lines
from ..zwave.application import ApplicationPayload
from ..zwave.frame import ZWaveFrame
from ..zwave.registry import SpecRegistry, load_full_registry
from .transceiver import CapturedFrame


@layout(rename={"timestamp": "t", "rssi_dbm": "rssi", "raw_hex": "raw"})
@dataclass(frozen=True)
class TraceRecord:
    """One persisted capture."""

    timestamp: float
    rssi_dbm: float
    raw_hex: str
    #: Always 0 for a capture: the medium delivers the bytes it was sent.
    #: Kept so trace files keep their bytes and older ones still load.
    bit_errors: int = 0

    @property
    def raw(self) -> bytes:
        return bytes.fromhex(self.raw_hex)

    @property
    def frame(self) -> Optional[ZWaveFrame]:
        try:
            return ZWaveFrame.decode(self.raw, verify=False)
        except Exception:
            return None

    @classmethod
    def from_capture(cls, capture: CapturedFrame) -> "TraceRecord":
        return cls(
            timestamp=capture.timestamp,
            rssi_dbm=capture.rssi_dbm,
            raw_hex=capture.raw.hex(),
        )


def save_trace(
    captures: Iterable[CapturedFrame], path: Union[str, Path]
) -> int:
    """Persist *captures* as JSON lines; returns the record count."""
    return dump_lines((TraceRecord.from_capture(c) for c in captures), path)


def load_trace(path: Union[str, Path]) -> List[TraceRecord]:
    """Reload a trace written by :func:`save_trace`.

    A malformed line raises :class:`~repro.wire.WireError` naming
    ``path:line``.
    """
    return load_lines(TraceRecord, path)


def dissect(record: TraceRecord, registry: Optional[SpecRegistry] = None) -> str:
    """One Zniffer-style line for *record*."""
    registry = registry or load_full_registry()
    frame = record.frame
    prefix = f"{record.timestamp:10.3f}  {record.rssi_dbm:6.1f} dBm  "
    if frame is None:
        return prefix + f"<undecodable {len(record.raw)} bytes: {record.raw_hex}>"
    if frame.is_ack:
        return prefix + (
            f"{frame.home_id:08X}  {frame.src:3d} -> {frame.dst:3d}  ACK"
        )
    body = "NOP"
    if frame.payload and frame.payload != b"\x00":
        try:
            payload = ApplicationPayload.decode(frame.payload)
            cls = registry.get(payload.cmdcl)
            cls_name = cls.name if cls else f"0x{payload.cmdcl:02X}"
            if payload.cmd is None:
                body = f"{cls_name} (class probe)"
            else:
                cmd = cls.command(payload.cmd) if cls else None
                cmd_name = cmd.name if cmd else f"0x{payload.cmd:02X}"
                body = f"{cls_name}.{cmd_name} [{_render_params(cmd, payload.params)}]"
        except Exception:
            body = f"<bad APL {frame.payload.hex()}>"
    return prefix + (
        f"{frame.home_id:08X}  {frame.src:3d} -> {frame.dst:3d}  seq {frame.sequence:2d}  {body}"
    )


def _render_params(cmd, params: bytes) -> str:
    """Render parameter bytes, naming the ones the schema defines.

    Schema-defined positions print as ``name=0xXX``; trailing undefined
    bytes fall back to raw hex.  Long opaque runs (encapsulation blobs)
    stay as hex for readability.
    """
    if not params:
        return "-"
    if cmd is None or not cmd.params or len(params) > 8:
        return params.hex()
    rendered = []
    for index, value in enumerate(params):
        param = cmd.param_at(index)
        if param is not None:
            rendered.append(f"{param.name}=0x{value:02X}")
        else:
            rendered.append(f"0x{value:02X}")
    return " ".join(rendered)


def dissect_trace(
    records: Iterable[TraceRecord], registry: Optional[SpecRegistry] = None
) -> str:
    """Dissect a whole trace into a printable transcript."""
    registry = registry or load_full_registry()
    return "\n".join(dissect(record, registry) for record in records)
