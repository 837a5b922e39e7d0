"""Application-layer payload model (CMDCL | CMD | PARAM1..PARAMn).

This is the hierarchical tree of Figure 6: the command class sits at
position 0, the command at position 1, and parameters at positions 2..n.
The :class:`ApplicationPayload` value object gives the mutator positional
access, and :func:`validate_payload` classifies a payload against the
specification registry the way a well-implemented receiver would.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from ..errors import FrameError
from .cmdclass import Command, CommandClass
from .constants import MAX_APL_PAYLOAD_SIZE
from .registry import SpecRegistry

#: Hierarchy positions (Figure 6).
POSITION_CMDCL = 0
POSITION_CMD = 1
POSITION_FIRST_PARAM = 2

_new = object.__new__


@dataclass(frozen=True)
class ApplicationPayload:
    """An application-layer payload with positional field access."""

    cmdcl: int
    cmd: Optional[int] = None
    params: bytes = b""

    def __post_init__(self) -> None:
        if not 0 <= self.cmdcl <= 0xFF:
            raise FrameError(f"command class {self.cmdcl} out of byte range")
        if self.cmd is not None and not 0 <= self.cmd <= 0xFF:
            raise FrameError(f"command {self.cmd} out of byte range")
        if len(self) > MAX_APL_PAYLOAD_SIZE:
            raise FrameError(
                f"payload of {len(self)} bytes exceeds the {MAX_APL_PAYLOAD_SIZE}-byte APL maximum"
            )

    def __len__(self) -> int:
        return 1 + (1 if self.cmd is not None else 0) + len(self.params)

    def encode(self) -> bytes:
        """Serialise to raw APL bytes (memoised on the immutable instance)."""
        raw = self.__dict__.get("_raw")
        if raw is not None:
            return raw
        out = bytearray([self.cmdcl])
        if self.cmd is not None:
            out.append(self.cmd)
            out += self.params
        raw = bytes(out)
        object.__setattr__(self, "_raw", raw)
        return raw

    @classmethod
    def decode(cls, raw: bytes) -> "ApplicationPayload":
        """Parse raw APL bytes (at least the CMDCL byte must be present)."""
        if not raw:
            raise FrameError("empty application payload")
        # The one check ``__post_init__`` makes that the buffer does not
        # settle by itself: the decoded payload is exactly len(raw) long.
        if len(raw) > MAX_APL_PAYLOAD_SIZE:
            raise FrameError(
                f"payload of {len(raw)} bytes exceeds the {MAX_APL_PAYLOAD_SIZE}-byte APL maximum"
            )
        # In range by construction: cmdcl and cmd are single bytes.  Keys go
        # in declaration order, keeping the shared-key dict (see _built).
        payload = _new(cls)
        fields = payload.__dict__
        fields["cmdcl"] = raw[0]
        fields["cmd"] = raw[1] if len(raw) >= 2 else None
        fields["params"] = bytes(raw[2:])
        return payload

    # -- positional access (Figure 6) ---------------------------------------

    def _spawn(
        self, cmdcl: int, cmd: Optional[int], params: bytes, raw: bytes
    ) -> "ApplicationPayload":
        """Construct a mutated copy with its wire bytes pre-seeded.

        The mutation operators splice *raw* out of the parent's encoded
        buffer, so the child's first ``encode()`` is a memo hit instead of
        a fresh serialisation — mutation works on buffers, not on
        field-by-field round-trips.  Validation still runs (the normal
        constructor fires ``__post_init__``); only the serialise step is
        skipped, and the splices below are byte-identical to it.
        """
        child = ApplicationPayload(cmdcl, cmd, params)
        object.__setattr__(child, "_raw", raw)
        return child

    def replace_at(self, position: int, value: int) -> "ApplicationPayload":
        """Return a copy with the byte at *position* replaced by *value*."""
        if not 0 <= value <= 0xFF:
            raise FrameError(f"replacement value {value} out of byte range")
        if position == POSITION_CMDCL:
            base = self.encode()
            return self._spawn(value, self.cmd, self.params, bytes([value]) + base[1:])
        if position == POSITION_CMD:
            if self.cmd is None:
                # The command byte is appearing for the first time — there
                # is no parent buffer slot to splice into.
                return ApplicationPayload(self.cmdcl, value, self.params)
            base = self.encode()
            return self._spawn(
                self.cmdcl, value, self.params, base[:1] + bytes([value]) + base[2:]
            )
        index = position - POSITION_FIRST_PARAM
        if not 0 <= index < len(self.params):
            raise FrameError(f"no parameter at position {position}")
        params = bytearray(self.params)
        params[index] = value
        if self.cmd is None:
            # Degenerate shape (params without a command encode to nothing);
            # leave serialisation to the normal path.
            return ApplicationPayload(self.cmdcl, self.cmd, bytes(params))
        buf = bytearray(self.encode())
        buf[POSITION_FIRST_PARAM + index] = value
        return self._spawn(self.cmdcl, self.cmd, bytes(params), bytes(buf))

    def append_param(self, value: int) -> "ApplicationPayload":
        """Return a copy with *value* appended as a trailing parameter."""
        if self.cmd is None:
            raise FrameError("cannot append a parameter to a payload without a command")
        tail = bytes([value & 0xFF])
        return self._spawn(
            self.cmdcl, self.cmd, self.params + tail, self.encode() + tail
        )

    def truncate_params(self, count: int) -> "ApplicationPayload":
        """Return a copy keeping only the first *count* parameters."""
        params = self.params[: max(count, 0)]
        if self.cmd is None:
            return ApplicationPayload(self.cmdcl, self.cmd, params)
        raw = self.encode()[: POSITION_FIRST_PARAM + len(params)]
        return self._spawn(self.cmdcl, self.cmd, params, raw)


class Validity(Enum):
    """Receiver-side classification of a payload."""

    VALID = "valid"  # known class, known command, legal parameters
    SEMI_VALID = "semi_valid"  # known class, but command/params deviate
    INVALID = "invalid"  # unknown class or structurally broken


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of :func:`validate_payload` with the reasons collected."""

    validity: Validity
    reasons: Tuple[str, ...] = ()
    command_class: Optional[CommandClass] = None
    command: Optional[Command] = None


def validate_payload(
    payload: ApplicationPayload, registry: SpecRegistry
) -> ValidationResult:
    """Classify *payload* against *registry* as valid / semi-valid / invalid.

    Semi-valid payloads are the sweet spot the paper's mutator aims for:
    "payloads must be sophisticated enough to test exception and error
    conditions without being rejected by the controller's basic checks".
    """
    cls = registry.get(payload.cmdcl)
    if cls is None:
        return ValidationResult(Validity.INVALID, (f"unknown command class {payload.cmdcl:#04x}",))
    if payload.cmd is None:
        return ValidationResult(
            Validity.SEMI_VALID, ("payload carries a command class but no command",), cls
        )
    cmd = cls.command(payload.cmd)
    if cmd is None:
        return ValidationResult(
            Validity.SEMI_VALID,
            (f"command {payload.cmd:#04x} not defined for {cls.name}",),
            cls,
        )
    reasons: List[str] = []
    for param in cmd.params:
        if param.position >= len(payload.params):
            reasons.append(f"missing parameter {param.name!r} at index {param.position}")
            continue
        value = payload.params[param.position]
        if not param.is_legal(value):
            reasons.append(
                f"parameter {param.name!r} value {value:#04x} outside its legal domain"
            )
    if len(payload.params) > len(cmd.params):
        reasons.append(
            f"{len(payload.params) - len(cmd.params)} trailing parameter byte(s)"
        )
    if reasons:
        return ValidationResult(Validity.SEMI_VALID, tuple(reasons), cls, cmd)
    return ValidationResult(Validity.VALID, (), cls, cmd)


def build_valid_payload(
    registry: SpecRegistry, cls_id: int, cmd_id: int, param_values: Optional[Sequence[int]] = None
) -> ApplicationPayload:
    """Build a fully valid payload for (*cls_id*, *cmd_id*).

    When *param_values* is omitted, each mandatory parameter takes its first
    legal value — the "semi-valid initial packet" seed of Algorithm 1.
    """
    cmd = registry.command(cls_id, cmd_id)
    if param_values is None:
        param_values = [param.legal_values()[0] for param in cmd.params]
    return ApplicationPayload(cls_id, cmd_id, bytes(v & 0xFF for v in param_values))
