"""The fifteen zero-day vulnerability models of Table III, plus the
MAC-layer one-days that VFuzz-style fuzzing finds (Table V).

Each zero-day is modelled as a trigger predicate over the received
application payload plus an effect the firmware applies when it fires.
Trigger shapes follow the paper's root-cause analysis ("lack of
authentication, weak identity verification, inadequate access control,
missing packet validation"): handlers dispatch on the command byte without
bounds checks (so runs of undefined commands fall into vulnerable paths)
and mis-handle payloads whose *length* deviates from the schema.  The
canonical (CMDCL, CMD) of Table III is the minimal proof-of-concept ZCover
reports.

A modelling consequence the evaluation depends on: a MAC-frame fuzzer that
mutates header bytes in place never changes the *length* of the application
payload, so it structurally cannot reach the length-confusion bugs — which
reproduces the paper's observation that ZCover's and VFuzz's finding sets
are disjoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class EffectType(Enum):
    """What a triggered vulnerability does to the system under test."""

    MEMORY_WAKEUP_CLEAR = "memory_wakeup_clear"
    MEMORY_MODIFY = "memory_modify"
    MEMORY_INSERT = "memory_insert"
    MEMORY_REMOVE = "memory_remove"
    MEMORY_OVERWRITE = "memory_overwrite"
    CONTROLLER_HANG = "controller_hang"
    HOST_CRASH = "host_crash"
    HOST_DOS = "host_dos"


#: Effects that corrupt NVM rather than availability.
MEMORY_EFFECTS = frozenset(
    {
        EffectType.MEMORY_WAKEUP_CLEAR,
        EffectType.MEMORY_MODIFY,
        EffectType.MEMORY_INSERT,
        EffectType.MEMORY_REMOVE,
        EffectType.MEMORY_OVERWRITE,
    }
)

#: Effects that land on the attached host program, not the chip.
HOST_EFFECTS = frozenset({EffectType.HOST_CRASH, EffectType.HOST_DOS})


class RootCause(Enum):
    """Table III's root-cause column."""

    SPECIFICATION = "Specification"
    IMPLEMENTATION = "Implementation"


@dataclass(frozen=True)
class TriggerContext:
    """What a predicate sees about one received application payload."""

    cmdcl: int
    cmd: Optional[int]
    params: bytes
    encapsulated: bool
    supported_cmdcls: Tuple[int, ...] = ()

    @property
    def param_count(self) -> int:
        return len(self.params)

    def param(self, index: int, default: int = -1) -> int:
        return self.params[index] if index < len(self.params) else default


Predicate = Callable[[TriggerContext], bool]


@dataclass(frozen=True)
class Vulnerability:
    """One Table III zero-day."""

    bug_id: int
    cmdcl: int
    canonical_cmd: int
    description: str
    effect: EffectType
    root_cause: RootCause
    cve: Optional[str]
    affected: str
    duration_s: Optional[float]  # None = "Infinite" in Table III.
    predicate: Predicate

    def triggered_by(self, ctx: TriggerContext) -> bool:
        """Whether *ctx* fires this vulnerability."""
        if ctx.cmdcl != self.cmdcl or ctx.cmd is None:
            return False
        return self.predicate(ctx)

    @property
    def duration_label(self) -> str:
        if self.duration_s is None:
            return "Infinite"
        if self.duration_s >= 120:
            return f"{int(self.duration_s // 60)} min"
        return f"{int(self.duration_s)} sec"


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------
#
# NVM_NODE_WRITE (0x01/0x0D) operation selector values.

OP_WAKEUP_CLEAR = 0x00
OP_MODIFY = 0x01
OP_INSERT = 0x02
OP_REMOVE = 0x03
OP_OVERWRITE = 0x04


def _nvm_write(operation: int) -> Predicate:
    """CMDCL 0x01 CMD 0x0D with the given operation selector.

    The handler requires at least (node_id, operation); everything after is
    taken on faith — the missing validation Table III blames.
    """

    def predicate(ctx: TriggerContext) -> bool:
        return ctx.cmd == 0x0D and ctx.param_count >= 2 and ctx.param(1) == operation

    return predicate


def _bug05_app_update_flood(ctx: TriggerContext) -> bool:
    """CMDCL 0x01 CMD 0x02: unauthenticated application-update event.

    The controller forwards the spoofed node-information update straight to
    the controlling application, which chokes on it.
    """
    return ctx.cmd == 0x02


def _bug06_malformed_nonce_get(ctx: TriggerContext) -> bool:
    """CMDCL 0x9F CMD 0x01: S2 nonce request with the sequence byte missing.

    The PC controller program indexes the absent field and dies.
    """
    return ctx.cmd == 0x01 and ctx.param_count == 0


def _bug07_reset_notification(ctx: TriggerContext) -> bool:
    """CMDCL 0x5A: any bare (parameter-less) command stalls the handler.

    The class dispatch assumes a body follows the command byte; a
    zero-parameter frame sends it into a 68-second recovery scan.
    """
    return ctx.param_count == 0


def _bug08_group_info_get(ctx: TriggerContext) -> bool:
    """CMDCL 0x59, odd dispatch path (canonical CMD 0x03) with a body."""
    if ctx.param_count < 2:
        return False
    return ctx.cmd in (0x03, 0x04) or (ctx.cmd > 0x06 and ctx.cmd % 2 == 1)


def _bug11_command_list_get(ctx: TriggerContext) -> bool:
    """CMDCL 0x59, even dispatch path (canonical CMD 0x05) with a body."""
    if ctx.param_count < 2:
        return False
    return ctx.cmd in (0x05, 0x06) or (ctx.cmd > 0x06 and ctx.cmd % 2 == 0)


def _bug09_firmware_md_get(ctx: TriggerContext) -> bool:
    """CMDCL 0x7A, bare even-path command (canonical CMD 0x01)."""
    if ctx.param_count != 0:
        return False
    return ctx.cmd in (0x01, 0x02) or (ctx.cmd > 0x07 and ctx.cmd % 2 == 0)


def _bug15_update_request(ctx: TriggerContext) -> bool:
    """CMDCL 0x7A, odd-path command with a body (canonical CMD 0x03)."""
    if ctx.param_count < 2:
        return False
    return ctx.cmd in (0x03, 0x04) or (ctx.cmd > 0x07 and ctx.cmd % 2 == 1)


def _bug10_version_cc_get(ctx: TriggerContext) -> bool:
    """CMDCL 0x86: version query for a class the controller lacks.

    The firmware walks its class table looking for the requested class and
    stays busy for ~4 seconds when it is absent; undefined commands above
    0x15 fall into the same lookup with attacker-shaped arguments.
    """
    if ctx.cmd == 0x13:
        return ctx.param_count >= 1 and ctx.param(0) not in ctx.supported_cmdcls
    return ctx.cmd >= 0x16 and ctx.param_count >= 2


def _bug13_powerlevel_test(ctx: TriggerContext) -> bool:
    """CMDCL 0x73 CMD 0x04: truncated test-node request kills the host app."""
    return ctx.cmd == 0x04 and ctx.param_count < 4


def _bug14_find_nodes(ctx: TriggerContext) -> bool:
    """CMDCL 0x01 CMD 0x04: node-mask length beyond the 29-byte maximum.

    The controller searches for non-existent devices for over four minutes
    (the paper's single-packet WAKEUP-adjacent network stall).
    """
    return ctx.cmd == 0x04 and ctx.param_count >= 1 and ctx.param(0) > 29


# ---------------------------------------------------------------------------
# The canonical bug database (Table III)
# ---------------------------------------------------------------------------

ZERO_DAYS: Tuple[Vulnerability, ...] = (
    Vulnerability(
        1, 0x01, 0x0D,
        "Memory corruption in existing device properties.",
        EffectType.MEMORY_MODIFY, RootCause.SPECIFICATION,
        "CVE-2024-50929", "D1 - D7", None, _nvm_write(OP_MODIFY),
    ),
    Vulnerability(
        2, 0x01, 0x0D,
        "Fake device insertion into controller's memory.",
        EffectType.MEMORY_INSERT, RootCause.SPECIFICATION,
        "CVE-2024-50920", "D1 - D7", None, _nvm_write(OP_INSERT),
    ),
    Vulnerability(
        3, 0x01, 0x0D,
        "Remove valid device in the controller's memory.",
        EffectType.MEMORY_REMOVE, RootCause.SPECIFICATION,
        "CVE-2024-50931", "D1 - D7", None, _nvm_write(OP_REMOVE),
    ),
    Vulnerability(
        4, 0x01, 0x0D,
        "Overwriting the controller's device database.",
        EffectType.MEMORY_OVERWRITE, RootCause.SPECIFICATION,
        "CVE-2024-50930", "D1 - D7", None, _nvm_write(OP_OVERWRITE),
    ),
    Vulnerability(
        5, 0x01, 0x02,
        "DoS on smartphone app.",
        EffectType.HOST_DOS, RootCause.SPECIFICATION,
        "CVE-2024-50921", "D6 and D7", None, _bug05_app_update_flood,
    ),
    Vulnerability(
        6, 0x9F, 0x01,
        "Z-Wave PC controller program crash.",
        EffectType.HOST_CRASH, RootCause.IMPLEMENTATION,
        "CVE-2023-6640", "D1 - D5", None, _bug06_malformed_nonce_get,
    ),
    Vulnerability(
        7, 0x5A, 0x01,
        "Service interruption during the attack.",
        EffectType.CONTROLLER_HANG, RootCause.SPECIFICATION,
        "CVE-2023-6533", "D1 - D7", 68.0, _bug07_reset_notification,
    ),
    Vulnerability(
        8, 0x59, 0x03,
        "Service interruption during the attack.",
        EffectType.CONTROLLER_HANG, RootCause.SPECIFICATION,
        "CVE-2024-50924", "D1 - D7", 67.0, _bug08_group_info_get,
    ),
    Vulnerability(
        9, 0x7A, 0x01,
        "Service interruption during the attack.",
        EffectType.CONTROLLER_HANG, RootCause.SPECIFICATION,
        "CVE-2023-6642", "D1 - D7", 63.0, _bug09_firmware_md_get,
    ),
    Vulnerability(
        10, 0x86, 0x13,
        "Service interruption during the attack.",
        EffectType.CONTROLLER_HANG, RootCause.SPECIFICATION,
        "CVE-2023-6641", "D1 - D7", 4.0, _bug10_version_cc_get,
    ),
    Vulnerability(
        11, 0x59, 0x05,
        "Service interruption during the attack.",
        EffectType.CONTROLLER_HANG, RootCause.SPECIFICATION,
        "CVE-2023-6643", "D1 - D7", 62.0, _bug11_command_list_get,
    ),
    Vulnerability(
        12, 0x01, 0x0D,
        "Remove the device's wakeup interval value.",
        EffectType.MEMORY_WAKEUP_CLEAR, RootCause.SPECIFICATION,
        "CVE-2024-50928", "D1 - D7", None, _nvm_write(OP_WAKEUP_CLEAR),
    ),
    Vulnerability(
        13, 0x73, 0x04,
        "Dos on the Z-Wave PC controller program.",
        EffectType.HOST_DOS, RootCause.IMPLEMENTATION,
        None, "D1 - D5", None, _bug13_powerlevel_test,
    ),
    Vulnerability(
        14, 0x01, 0x04,
        "Z-Wave controller service disruption.",
        EffectType.CONTROLLER_HANG, RootCause.SPECIFICATION,
        None, "D1 - D7", 240.0, _bug14_find_nodes,
    ),
    Vulnerability(
        15, 0x7A, 0x03,
        "Service interruption during the attack.",
        EffectType.CONTROLLER_HANG, RootCause.SPECIFICATION,
        None, "D1 - D7", 59.0, _bug15_update_request,
    ),
)


def zero_day_by_id(bug_id: int) -> Vulnerability:
    """Return the Table III entry with the given bug id."""
    for bug in ZERO_DAYS:
        if bug.bug_id == bug_id:
            return bug
    raise KeyError(f"no zero-day with bug id {bug_id}")


#: Bugs living in CMDCL 0x01 — unreachable without unknown-property
#: discovery, which is exactly what the β ablation removes (Table VI).
CMDCL_0X01_BUG_IDS = tuple(b.bug_id for b in ZERO_DAYS if b.cmdcl == 0x01)


# ---------------------------------------------------------------------------
# MAC-layer one-day quirks (the bugs VFuzz-style fuzzing finds, Table V)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MacQuirk:
    """A known (one-day) MAC-frame parsing bug in a specific controller.

    Predicates operate on the raw frame bytes *before* strict validation,
    because the flaw lives in the validator itself.  ZCover never reaches
    these (it keeps every MAC field intact — Table I), which is why the
    paper saw no overlap between the two tools' findings.
    """

    quirk_id: str
    description: str
    hang_s: float
    predicate: Callable[[bytes], bool]


def _q_len_overrun(raw: bytes) -> bool:
    """LEN field larger than the physical frame: parser over-read."""
    return len(raw) >= 10 and raw[7] > len(raw)


def _q_len_underrun(raw: bytes) -> bool:
    """LEN field smaller than the header: negative payload size."""
    return len(raw) >= 10 and 0 < raw[7] < 10


def _q_src_is_dst(raw: bytes) -> bool:
    """Source equal to destination: routing loop in the ACK path."""
    return len(raw) >= 10 and raw[4] == raw[8] and raw[4] != 0


def _q_reserved_header_type(raw: bytes) -> bool:
    """Reserved frame-control header type values crash the dispatcher."""
    return len(raw) >= 10 and (raw[5] & 0x0F) in (0x00, 0x05, 0x06, 0x07)


def _q_routed_no_route(raw: bytes) -> bool:
    """Routed flag set on a frame with no routing header bytes."""
    return len(raw) >= 10 and bool(raw[5] & 0x80) and raw[7] <= 10

def _q_broadcast_ack(raw: bytes) -> bool:
    """ACK-request on a broadcast: the chip tries to ACK 0xFF forever."""
    return len(raw) >= 10 and raw[8] == 0xFF and bool(raw[5] & 0x40)


def _q_null_dst(raw: bytes) -> bool:
    """Frames addressed to node 0 dereference a null routing-table entry
    (no legitimate sender ever addresses the uninitialised node id)."""
    return len(raw) >= 10 and raw[8] == 0x00


MAC_QUIRK_CATALOG: Dict[str, MacQuirk] = {
    "LEN-OVERRUN": MacQuirk(
        "LEN-OVERRUN", "LEN field beyond frame end causes a parser over-read", 30.0, _q_len_overrun
    ),
    "LEN-UNDERRUN": MacQuirk(
        "LEN-UNDERRUN", "LEN field below the header size wraps the payload length", 25.0, _q_len_underrun
    ),
    "SRC-EQ-DST": MacQuirk(
        "SRC-EQ-DST", "frames with src == dst trap the ACK path in a loop", 20.0, _q_src_is_dst
    ),
    "RESERVED-TYPE": MacQuirk(
        "RESERVED-TYPE", "reserved frame-control header types crash the dispatcher", 15.0, _q_reserved_header_type
    ),
    "ROUTED-EMPTY": MacQuirk(
        "ROUTED-EMPTY", "routed flag without a routing header dereferences junk", 22.0, _q_routed_no_route
    ),
    "BROADCAST-ACK": MacQuirk(
        "BROADCAST-ACK", "ACK-request on broadcast starves the radio scheduler", 18.0, _q_broadcast_ack
    ),
    "NULL-DST": MacQuirk(
        "NULL-DST", "frames addressed to node 0 dereference a null route entry", 16.0, _q_null_dst
    ),
}

#: Which one-days each testbed controller carries (drives Table V's
#: VFuzz column: 1 / 3 / 0 / 4 / 0 findings on D1..D5).
DEVICE_MAC_QUIRKS: Dict[str, Tuple[str, ...]] = {
    "D1": ("LEN-OVERRUN",),
    "D2": ("LEN-UNDERRUN", "SRC-EQ-DST", "RESERVED-TYPE"),
    "D3": (),
    "D4": ("LEN-OVERRUN", "ROUTED-EMPTY", "BROADCAST-ACK", "NULL-DST"),
    "D5": (),
    "D6": (),
    "D7": (),
}


# ---------------------------------------------------------------------------
# Session-level vulnerabilities (multi-frame state-machine bugs)
# ---------------------------------------------------------------------------
#
# Where the Table III zero-days fire on a single application payload, the
# planted session bugs below fire only on *sequences*: a controller that
# keeps accepting frames after a flow reached a terminal state, commits a
# multi-step exchange without its closing frame, or honours a downgraded
# or replayed handshake step.  Each predicate sees the whole annotated
# trace — every frame carries the flow-graph state the evaluator was in
# *before* consuming it — and returns the sequence index at which the
# lenient acceptance becomes an exploitable fact, or ``None``.
#
# The ground-truth contract (ISSUE 8 / the paper's Table VI analogue):
# every predicate is reachable by a short directed mutation of the happy
# path (``repro.core.session.DIRECTED_ATTACKS``), and none fires on any
# unmutated happy-path trace.

# S0 command class 0x98.
_S0 = 0x98
_S0_SCHEME_REPORT = 0x05
_S0_NONCE_REPORT = 0x80
_S0_MESSAGE_ENCAP = 0x81
# S2 command class 0x9F.
_S2 = 0x9F
_S2_NONCE_REPORT = 0x02
_S2_MESSAGE_ENCAP = 0x03
_S2_KEX_REPORT = 0x05
_S2_KEX_SET = 0x06
_S2_PUBLIC_KEY_REPORT = 0x08
# OTA command class 0x7A.
_OTA = 0x7A
_OTA_REQUEST_GET = 0x03
_OTA_REQUEST_REPORT = 0x04
_OTA_MD_FRAGMENT = 0x06
_OTA_STATUS_REPORT = 0x07
# Network-management class 0x01 (inclusion / exclusion / replication).
_NM = 0x01
_NM_NODE_INFO = 0x01
_NM_PRESENTATION = 0x08
_NM_TRANSFER_NODE = 0x09
_NM_TRANSFER_END = 0x0B


class SessionFrame(NamedTuple):
    """One frame of an annotated session trace, as the oracle sees it.

    ``state`` is the flow-graph state the session evaluator was in
    immediately *before* consuming this frame, so predicates can ask
    "did the controller accept X while already in state Y?" without
    re-deriving the walk.

    A named tuple: the evaluator builds one per event of every trial, and
    a tuple is built and read in C.  It is not a wire type.
    """

    state: str
    sender: str  # "ctrl" or "dev"
    cmdcl: int
    cmd: int
    params: bytes


SessionTrace = Tuple[SessionFrame, ...]

#: Returns the firing sequence index, or ``None`` when the trace is clean.
SessionPredicate = Callable[[SessionTrace], Optional[int]]


@dataclass(frozen=True)
class SessionVulnerability:
    """One planted multi-frame state-machine bug."""

    vuln_id: str
    flow: str
    name: str
    description: str
    predicate: SessionPredicate


def _indices(frames: SessionTrace, cmdcl: int, cmd: int) -> List[int]:
    return [i for i, f in enumerate(frames) if f.cmdcl == cmdcl and f.cmd == cmd]


def _sv_s0_scheme_downgrade(frames: SessionTrace) -> Optional[int]:
    """A non-zero SCHEME_REPORT (anything but scheme 0) must abort the S0
    bootstrap; a key encapsulation after it means the downgrade was
    accepted — the Crushing-the-Wave key-exchange bug."""
    bad = next(
        (
            i
            for i, f in enumerate(frames)
            if f.cmdcl == _S0
            and f.cmd == _S0_SCHEME_REPORT
            and f.params != b"\x00"
        ),
        None,
    )
    if bad is None:
        return None
    for j in range(bad + 1, len(frames)):
        if frames[j].cmdcl == _S0 and frames[j].cmd == _S0_MESSAGE_ENCAP:
            return j
    return None


def _sv_s0_nonce_replay(frames: SessionTrace) -> Optional[int]:
    """The same 8-byte S0 nonce offered twice with an encapsulation
    consumed against each: the receiver failed to burn the nonce."""
    seen: Dict[bytes, int] = {}
    duplicated = False
    for f in frames:
        if f.cmdcl == _S0 and f.cmd == _S0_NONCE_REPORT:
            seen[f.params] = seen.get(f.params, 0) + 1
            if seen[f.params] >= 2:
                duplicated = True
    if not duplicated:
        return None
    encaps = _indices(frames, _S0, _S0_MESSAGE_ENCAP)
    return encaps[1] if len(encaps) >= 2 else None


def _sv_s0_rekey_after_verify(frames: SessionTrace) -> Optional[int]:
    """A key-set encapsulation accepted after NETWORK_KEY_VERIFY closed
    the exchange: the controller re-keys an already-secured session."""
    for i, f in enumerate(frames):
        if f.cmdcl == _S0 and f.cmd == _S0_MESSAGE_ENCAP and f.state == "done":
            return i
    return None


def _sv_s2_grant_escalation(frames: SessionTrace) -> Optional[int]:
    """KEX_SET granting key bits the device never requested, followed by
    a completed key transfer: access-control escalation at bootstrap."""
    requested: Optional[int] = None
    escalated = False
    for i, f in enumerate(frames):
        if f.cmdcl != _S2:
            continue
        if f.cmd == _S2_KEX_REPORT and len(f.params) >= 4:
            requested = f.params[3]
        elif f.cmd == _S2_KEX_SET and len(f.params) >= 4:
            if requested is not None and f.params[3] & ~requested & 0xFF:
                escalated = True
        elif f.cmd == _S2_MESSAGE_ENCAP and escalated:
            return i
    return None


def _sv_s2_pubkey_swap(frames: SessionTrace) -> Optional[int]:
    """A second, different device public key accepted after the ECDH
    exchange already bound the first — the mid-inclusion MitM swap."""
    first: Optional[bytes] = None
    for i, f in enumerate(frames):
        if (
            f.cmdcl == _S2
            and f.cmd == _S2_PUBLIC_KEY_REPORT
            and f.sender == "dev"
            and len(f.params) >= 2
            and f.params[0] == 0x01
        ):
            if first is None:
                first = f.params[1:]
            elif f.params[1:] != first:
                return i
    return None


def _sv_s2_entropy_reuse(frames: SessionTrace) -> Optional[int]:
    """Identical SPAN entropy offered twice and an encapsulation still
    decrypted after the repeat: nonce reuse under the same key."""
    reports = _indices(frames, _S2, _S2_NONCE_REPORT)
    second_dup: Optional[int] = None
    for a in range(len(reports)):
        for b in range(a + 1, len(reports)):
            if frames[reports[a]].params == frames[reports[b]].params:
                second_dup = reports[b]
                break
        if second_dup is not None:
            break
    if second_dup is None:
        return None
    for j in range(second_dup + 1, len(frames)):
        if frames[j].cmdcl == _S2 and frames[j].cmd == _S2_MESSAGE_ENCAP:
            return j
    return None


def _sv_incl_stale_nif(frames: SessionTrace) -> Optional[int]:
    """A divergent node-information frame accepted after the node id was
    already assigned: the controller trusts a stale (spoofed) NIF."""
    first: Optional[bytes] = None
    for i, f in enumerate(frames):
        if f.cmdcl == _NM and f.cmd == _NM_NODE_INFO:
            if first is None:
                first = f.params
            elif f.params != first and f.state in ("id_assigned", "done"):
                return i
    return None


def _sv_excl_spoofed_removal(frames: SessionTrace) -> Optional[int]:
    """TRANSFER_END confirming a removal that no exclusion-mode
    presentation ever opened: a spoofed device-removal commit."""
    presented = False
    for i, f in enumerate(frames):
        if (
            f.cmdcl == _NM
            and f.cmd == _NM_PRESENTATION
            and len(f.params) >= 1
            and f.params[0] == 0x02
        ):
            presented = True
        elif (
            f.cmdcl == _NM
            and f.cmd == _NM_TRANSFER_END
            and len(f.params) >= 1
            and f.params[0] == 0x02  # removal operand, not an add/repl end
            and not presented
        ):
            return i
    return None


def _sv_repl_ghost_commit(frames: SessionTrace) -> Optional[int]:
    """Replicated node records retained although TRANSFER_END never
    arrived: the secondary commits a half-transferred topology."""
    records = _indices(frames, _NM, _NM_TRANSFER_NODE)
    if not records:
        return None
    if _indices(frames, _NM, _NM_TRANSFER_END):
        return None
    return records[-1]


def _sv_repl_seq_overwrite(frames: SessionTrace) -> Optional[int]:
    """Two transfer records reusing one sequence number for different
    node ids: the second silently overwrites the first."""
    by_seq: Dict[int, int] = {}
    for i, f in enumerate(frames):
        if f.cmdcl == _NM and f.cmd == _NM_TRANSFER_NODE and len(f.params) >= 2:
            seq, node = f.params[0], f.params[1]
            if seq in by_seq and by_seq[seq] != node:
                return i
            by_seq.setdefault(seq, node)
    return None


def _sv_ota_resume_no_reauth(frames: SessionTrace) -> Optional[int]:
    """A fresh firmware offer accepted mid-transfer and fragments still
    flowing without a new REQUEST_REPORT authorisation."""
    for i, f in enumerate(frames):
        if (
            f.cmdcl == _OTA
            and f.cmd == _OTA_REQUEST_GET
            and f.state in ("pulling", "transferring")
        ):
            for j in range(i + 1, len(frames)):
                g = frames[j]
                if g.cmdcl != _OTA:
                    continue
                if g.cmd == _OTA_REQUEST_REPORT:
                    break  # re-authorised: this offer is clean
                if g.cmd in (_OTA_MD_FRAGMENT, _OTA_STATUS_REPORT):
                    return j
    return None


def _sv_ota_early_commit(frames: SessionTrace) -> Optional[int]:
    """STATUS_REPORT OK with fewer fragments delivered than the offer
    declared: the device activates a truncated image."""
    declared: Optional[int] = None
    fragments = 0
    for i, f in enumerate(frames):
        if f.cmdcl != _OTA:
            continue
        if f.cmd == _OTA_REQUEST_GET and len(f.params) >= 5:
            declared = f.params[4]
        elif f.cmd == _OTA_MD_FRAGMENT:
            fragments += 1
        elif (
            f.cmd == _OTA_STATUS_REPORT
            and len(f.params) >= 1
            and f.params[0] == 0xFF
            and declared is not None
            and fragments < declared
        ):
            return i
    return None


#: The planted session-level bug database, in canonical vuln-id order.
SESSION_VULNS: Tuple[SessionVulnerability, ...] = (
    SessionVulnerability(
        "SV01", "s0", "S0 scheme-downgrade acceptance",
        "Key transfer completes after a non-zero security scheme offer.",
        _sv_s0_scheme_downgrade,
    ),
    SessionVulnerability(
        "SV02", "s0", "S0 nonce replay",
        "A replayed external nonce is consumed by a second encapsulation.",
        _sv_s0_nonce_replay,
    ),
    SessionVulnerability(
        "SV03", "s0", "S0 re-key after verify",
        "A key-set encapsulation is accepted after NETWORK_KEY_VERIFY.",
        _sv_s0_rekey_after_verify,
    ),
    SessionVulnerability(
        "SV04", "s2", "S2 key-grant escalation",
        "KEX_SET grants key classes the device never requested.",
        _sv_s2_grant_escalation,
    ),
    SessionVulnerability(
        "SV05", "s2", "S2 public-key swap",
        "A second, different device public key is accepted mid-bootstrap.",
        _sv_s2_pubkey_swap,
    ),
    SessionVulnerability(
        "SV06", "s2", "S2 SPAN entropy reuse",
        "Identical SPAN entropy is honoured twice under one key.",
        _sv_s2_entropy_reuse,
    ),
    SessionVulnerability(
        "SV07", "inclusion", "Inclusion stale NIF",
        "A divergent node-information frame is trusted after id assignment.",
        _sv_incl_stale_nif,
    ),
    SessionVulnerability(
        "SV08", "exclusion", "Exclusion spoofed removal",
        "TRANSFER_END commits a removal no presentation ever opened.",
        _sv_excl_spoofed_removal,
    ),
    SessionVulnerability(
        "SV09", "replication", "Replication ghost commit",
        "Node records persist although TRANSFER_END never arrived.",
        _sv_repl_ghost_commit,
    ),
    SessionVulnerability(
        "SV10", "replication", "Replication sequence overwrite",
        "A reused sequence number overwrites an earlier node record.",
        _sv_repl_seq_overwrite,
    ),
    SessionVulnerability(
        "SV11", "ota", "OTA resume without re-auth",
        "Fragments keep flowing after a mid-transfer offer, unauthorised.",
        _sv_ota_resume_no_reauth,
    ),
    SessionVulnerability(
        "SV12", "ota", "OTA early commit",
        "STATUS OK activates an image with fragments missing.",
        _sv_ota_early_commit,
    ),
)


def session_vuln_by_id(vuln_id: str) -> SessionVulnerability:
    """Return the planted session bug with the given id."""
    for vuln in SESSION_VULNS:
        if vuln.vuln_id == vuln_id:
            return vuln
    raise KeyError(f"no session vulnerability with id {vuln_id}")


_SESSION_VULNS_BY_FLOW: Dict[str, Tuple[SessionVulnerability, ...]] = {
    flow: tuple(v for v in SESSION_VULNS if v.flow == flow)
    for flow in dict.fromkeys(v.flow for v in SESSION_VULNS)
}


def session_vulns_for_flow(flow: str) -> Tuple[SessionVulnerability, ...]:
    """The planted bugs scoped to one flow, in vuln-id order."""
    return _SESSION_VULNS_BY_FLOW.get(flow, ())


def match_session_vulns(
    flow: str, frames: SessionTrace
) -> List[Tuple[SessionVulnerability, int]]:
    """Every planted bug of *flow* that fires on *frames*, with its firing
    sequence index, ordered by (index, vuln_id)."""
    hits = []
    for vuln in _SESSION_VULNS_BY_FLOW.get(flow, ()):
        fired = vuln.predicate(frames)
        if fired is not None:
            hits.append((vuln, fired))
    if len(hits) > 1:
        hits.sort(key=lambda pair: (pair[1], pair[0].vuln_id))
    return hits
