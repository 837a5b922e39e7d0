"""The virtual Z-Wave controller: firmware model of the system under test.

A :class:`VirtualController` behaves like the closed-source hubs of
Table II:

* MAC layer — home-id and destination filtering, checksum verification,
  acknowledgements, plus the device-specific MAC parsing one-days
  (:mod:`repro.simulator.vulnerabilities.MacQuirk`) that fire *before*
  validation, since the flaw lives in the validator;
* application layer — it implements all 45 controller-relevant command
  classes but *advertises only the listed subset* in its NIF (the
  listed/unlisted asymmetry ZCover's discovery phase exploits);
* the fifteen Table III zero-days, applied as effects on the node table,
  the availability state, or the attached host program;
* S0/S2 transports for legitimate slave traffic, with the specification
  flaw reproduced faithfully: protocol-class frames are accepted without
  encapsulation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import FrameError, SimulatorError
from ..obs import metrics as obs
from ..radio.clock import SimClock
from ..radio.medium import RadioMedium, Reception
from ..security.s0 import S0Context
from ..security.s2 import S2Context
from ..zwave import constants as const
from ..zwave.application import ApplicationPayload
from ..zwave.checksum import crc16
from ..zwave.cmdclass import CommandKind
from ..zwave.frame import ZWaveFrame
from ..zwave.nif import (
    BasicDeviceClass,
    GenericDeviceClass,
    NodeInfo,
    encode_nif_report,
    is_nif_request,
)
from ..zwave.registry import SpecRegistry, load_full_registry
from .host import HostProgram
from .memory import NodeRecord, NodeTable
from .transport import S0Messaging, S2Messaging, TRANSPORT_CMDCLS
from .vulnerabilities import (
    EffectType,
    MacQuirk,
    TriggerContext,
    Vulnerability,
    ZERO_DAYS,
)


_new = object.__new__

#: APPLICATION_BUSY (try again later) — the constant answer to supported
#: commands without a GET semantic; shared so its encoding memoises once.
_BUSY_PAYLOAD = ApplicationPayload(0x22, 0x01, bytes([0x00, 0x01]))


@dataclass
class TriggeredEvent:
    """Diagnostic record of one vulnerability firing inside the firmware."""

    timestamp: float
    bug_id: Optional[int]
    quirk_id: Optional[str]
    effect: str
    payload: bytes


@dataclass
class ControllerStats:
    """Frame-level accounting for the efficiency analyses."""

    received: int = 0
    rejected_checksum: int = 0
    rejected_home_id: int = 0
    rejected_dst: int = 0
    dropped_while_hung: int = 0
    acked: int = 0
    apl_processed: int = 0
    apl_ignored_unsupported: int = 0
    responses_sent: int = 0


class VirtualController:
    """One simulated Z-Wave hub attached to the radio medium."""

    def __init__(
        self,
        name: str,
        home_id: int,
        clock: SimClock,
        medium: RadioMedium,
        listed_cmdcls: Tuple[int, ...],
        supported_cmdcls: Tuple[int, ...],
        position: Tuple[float, float] = (0.0, 0.0),
        node_id: int = const.CONTROLLER_NODE_ID,
        zero_day_ids: Tuple[int, ...] = tuple(b.bug_id for b in ZERO_DAYS),
        mac_quirks: Tuple[MacQuirk, ...] = (),
        host: Optional[HostProgram] = None,
        registry: Optional[SpecRegistry] = None,
        network_key: bytes = b"\x00" * 16,
        rng: Optional[random.Random] = None,
    ):
        self.name = name
        self.home_id = home_id
        self.node_id = node_id
        self._clock = clock
        self._medium = medium
        self._registry = registry or load_full_registry()
        self._listed = tuple(sorted(listed_cmdcls))
        self._supported = tuple(sorted(supported_cmdcls))
        self._supported_set = frozenset(self._supported)
        self._zero_days = tuple(
            bug for bug in ZERO_DAYS if bug.bug_id in set(zero_day_ids)
        )
        # Dispatch index: ``triggered_by`` rejects on cmdcl first, so only
        # the bugs planted in the payload's class can ever fire.  Bucket
        # order preserves the tuple order, keeping first-match semantics.
        self._zero_days_by_cmdcl: Dict[int, Tuple[Vulnerability, ...]] = {}
        for bug in self._zero_days:
            bucket = self._zero_days_by_cmdcl.setdefault(bug.cmdcl, ())
            self._zero_days_by_cmdcl[bug.cmdcl] = bucket + (bug,)
        #: MAC acks keyed by (requester, sequence); an ack's bytes are a
        #: pure function of those two fields for a fixed controller.
        self._ack_cache: Dict[Tuple[int, int], bytes] = {}
        #: Per-class canonical GET response payload (``None`` when the
        #: class defines no REPORT); the payload instance is shared so its
        #: memoised encoding is built once per class.
        self._report_cache: Dict[int, Optional[ApplicationPayload]] = {}
        #: Outbound frame bytes keyed by (dst, payload, sequence, ack bit);
        #: the wire form is a pure function of those for a fixed controller,
        #: and the 16-value sequence cycle makes responses repeat quickly.
        self._tx_cache: Dict[Tuple[int, bytes, int, bool], bytes] = {}
        self._mac_quirks = tuple(mac_quirks)
        self.host = host
        self.nvm = NodeTable(own_node_id=node_id)
        self.stats = ControllerStats()
        self._rng = rng or random.Random(0)
        self._hang_until = 0.0
        self._powered = True
        self._sequence = 0
        self._events: List[TriggeredEvent] = []
        self._network_key = network_key
        self._s0 = S0Context(network_key, self._rng)
        self._s2 = S2Context(network_key, node_id, self._rng)
        self._s2m = S2Messaging(
            self._s2, home_id, node_id, self._send, self._deliver_secure_inner
        )
        self._s0m = S0Messaging(
            self._s0, node_id, self._send, self._deliver_secure_inner
        )
        self._poll_targets: List[int] = []
        self._poll_interval: Optional[float] = None
        #: Lifeline-style association groups (group id -> member node ids).
        self.associations: Dict[int, List[int]] = {1: []}
        #: Configuration parameter store (parameter number -> value).
        self.config_params: Dict[int, int] = {}
        #: Optional fault-injection hook (repro.faults.ControllerFaultInjector);
        #: consulted for an ACK delay when set.
        self.fault_injector = None
        medium.attach(name, position, region=_default_region(), callback=self._on_receive)

    # -- introspection the harness uses ------------------------------------------

    @property
    def s2_messaging(self) -> S2Messaging:
        return self._s2m

    @property
    def hung(self) -> bool:
        return self._clock.now < self._hang_until

    def hung_at(self, when: float) -> bool:
        """Whether the hub is still hung at simulated time *when*.

        The :attr:`hung` test a frame arriving at *when* meets; no
        scheduled event is needed for it to turn false.
        """
        return when < self._hang_until

    def drops_while_hung(self, raw: bytes) -> bool:
        """Whether receiving *raw* while hung only counts it as dropped.

        True when no fault injector is installed, the hub is powered, no
        MAC quirk matches *raw*, and *raw* is a valid non-ack frame for
        this node: arriving while :meth:`hung_at` holds, it reaches the
        hung test and changes nothing but what :meth:`book_dropped_while_hung`
        counts.
        """
        if self.fault_injector is not None or not self._powered:
            return False
        if any(quirk.predicate(raw) for quirk in self._mac_quirks):
            return False
        try:
            frame = ZWaveFrame.decode(raw, verify=True)
        except FrameError:
            return False
        return (
            frame.home_id == self.home_id
            and frame.dst in (self.node_id, const.BROADCAST_NODE_ID)
            and not frame.is_ack
        )

    def book_dropped_while_hung(self, count: int) -> None:
        """Count *count* receptions :meth:`drops_while_hung` cleared, made while hung."""
        if not count:
            return
        self.stats.received += count
        obs.inc("controller.frames_rx", count)
        self.stats.dropped_while_hung += count

    def events(self) -> List[TriggeredEvent]:
        return list(self._events)

    def node_info(self) -> NodeInfo:
        """The self-description sent in response to a NIF request."""
        return NodeInfo(
            basic=BasicDeviceClass.STATIC_CONTROLLER,
            generic=GenericDeviceClass.STATIC_CONTROLLER,
            specific=0x01,
            security=True,
            listed_cmdcls=self._listed,
        )

    # -- operator-style controls -----------------------------------------------------

    def power_cycle(self) -> None:
        """Reboot the hub: clears hangs and volatile state, keeps NVM."""
        self._hang_until = 0.0
        self._sequence = 0
        self._s2.reset_spans()

    def set_power(self, powered: bool) -> None:
        self._powered = powered
        self._medium.set_enabled(self.name, powered)

    # -- fault-injection entry points --------------------------------------------

    def inject_hang(self, duration_s: float) -> None:
        """A planned firmware hang (repro.faults controller 'hang' kind)."""
        self._hang(duration_s)

    def spurious_reset(self) -> None:
        """A planned spontaneous reboot (controller 'spurious-reset' kind)."""
        self.power_cycle()

    def start_polling(self, targets: List[int], interval: float) -> None:
        """Periodically poll slave devices (generates sniffable traffic)."""
        self._poll_targets = list(targets)
        self._poll_interval = interval
        self._schedule_poll()

    def _schedule_poll(self) -> None:
        if self._poll_interval is None:
            return
        self._clock.schedule(self._poll_interval, self._do_poll)

    def _do_poll(self) -> None:
        if self._powered and not self.hung:
            for target in self._poll_targets:
                record = self.nvm.get(target)
                if record is None:
                    continue  # The memory-tamper attacks make polls stop.
                if record.secure:
                    # S2-paired devices are driven through the encrypted
                    # transport (DOOR_LOCK_OPERATION_GET).
                    self._s2m.send_secure(target, ApplicationPayload(0x62, 0x02, b""))
                else:
                    self._send(target, ApplicationPayload(0x20, 0x02, b""))
        self._schedule_poll()

    # -- transmit helpers ----------------------------------------------------------------

    def _next_seq(self) -> int:
        self._sequence = (self._sequence + 1) % 16
        return self._sequence

    def _send(self, dst: int, payload: ApplicationPayload, ack_request: bool = True) -> None:
        apl = payload.encode()
        key = (dst, apl, self._next_seq(), ack_request)
        raw = self._tx_cache.get(key)
        if raw is None:
            frame = ZWaveFrame(
                home_id=self.home_id,
                src=self.node_id,
                dst=dst,
                payload=apl,
                sequence=key[2],
                ack_request=ack_request,
            )
            raw = frame.encode()
            if len(self._tx_cache) < 4096:
                self._tx_cache[key] = raw
        self.stats.responses_sent += 1
        obs.inc("controller.frames_tx")
        self._medium.transmit(self.name, raw, rate_kbaud=100.0)

    def _send_ack(self, frame: ZWaveFrame) -> None:
        self.stats.acked += 1
        obs.inc("controller.acks_tx")
        key = (frame.src, frame.sequence)
        raw = self._ack_cache.get(key)
        if raw is None:
            raw = frame.ack().encode()
            self._ack_cache[key] = raw
        if self.fault_injector is not None:
            delay = self.fault_injector.ack_delay()
            if delay > 0.0:
                self._clock.schedule(
                    delay, lambda: self._medium.transmit(self.name, raw, 100.0)
                )
                return
        self._medium.transmit(self.name, raw, rate_kbaud=100.0)

    # -- receive path -------------------------------------------------------------------

    def _on_receive(self, reception: Reception) -> None:
        if not self._powered:
            return
        self.stats.received += 1
        obs.inc("controller.frames_rx")
        raw = reception.raw

        # MAC parsing one-days live in the validator, so they fire first.
        for quirk in self._mac_quirks:
            if quirk.predicate(raw):
                self._hang(quirk.hang_s)
                self._events.append(
                    TriggeredEvent(self._clock.now, None, quirk.quirk_id, "mac_hang", raw)
                )
                return

        try:
            frame = ZWaveFrame.decode(raw, verify=True)
        except FrameError:
            self.stats.rejected_checksum += 1
            return
        if frame.home_id != self.home_id:
            self.stats.rejected_home_id += 1
            return
        if frame.dst not in (self.node_id, const.BROADCAST_NODE_ID):
            self.stats.rejected_dst += 1
            return
        if frame.is_ack:
            return
        if self.hung:
            self.stats.dropped_while_hung += 1
            return
        if frame.routed:
            # Mesh traffic: only a frame that finished its route is ours;
            # in-flight hops belong to the repeaters.
            from .routing import RoutingHeader

            try:
                header, inner = RoutingHeader.decode(frame.payload)
            except FrameError:
                return
            if not header.complete:
                return
            frame = frame.with_payload(inner)
        if frame.ack_request and not frame.is_broadcast:
            self._send_ack(frame)
        self._process_apl(frame)

    # -- application layer -----------------------------------------------------------------

    def _process_apl(self, frame: ZWaveFrame, encapsulated: bool = False) -> None:
        if not frame.payload:
            return
        if frame.payload == bytes([const.NOP_CMDCL]):
            return  # NOP ping: the MAC ACK already answered it.
        try:
            payload = ApplicationPayload.decode(frame.payload)
        except FrameError:
            return
        self.stats.apl_processed += 1
        obs.inc("controller.apl_rx")

        if is_nif_request(payload):
            self._send(frame.src, encode_nif_report(self.node_info()))
            return

        if self._handle_secure_transport(frame.src, payload):
            return

        self._process_payload(frame.src, payload, encapsulated)

    def _handle_secure_transport(self, src: int, payload: ApplicationPayload) -> bool:
        """Run the well-formed S2/S0 transport protocols.

        Malformed transport frames (e.g. a sequence-less NONCE_GET — bug
        #06's trigger) are deliberately NOT consumed here: the vulnerable
        dispatch below gets them, exactly as in the real firmware.
        """
        if payload.cmdcl not in TRANSPORT_CMDCLS:
            return False
        return self._s2m.handle(src, payload) or self._s0m.handle(src, payload)

    def _deliver_secure_inner(self, src: int, inner: ApplicationPayload) -> None:
        """A decapsulated payload enters ordinary application processing."""
        self._process_payload(src, inner, encapsulated=True)

    def _process_payload(
        self, src: int, payload: ApplicationPayload, encapsulated: bool, depth: int = 0
    ) -> None:
        self._mark_coverage(payload)
        # In range by construction: no __post_init__, a validated payload.
        ctx = _new(TriggerContext)
        fields = ctx.__dict__
        fields["cmdcl"] = payload.cmdcl
        fields["cmd"] = payload.cmd
        fields["params"] = payload.params
        fields["encapsulated"] = encapsulated
        fields["supported_cmdcls"] = self._supported
        for bug in self._zero_days_by_cmdcl.get(payload.cmdcl, ()):
            if bug.triggered_by(ctx):
                self._apply_effect(bug, ctx, src, payload)
                return

        if payload.cmdcl not in self._supported_set:
            self.stats.apl_ignored_unsupported += 1
            return
        if depth < 2 and self._handle_encapsulation(src, payload, encapsulated, depth):
            return
        if self._handle_stateful(src, payload):
            return
        self._respond_normally(src, payload)

    def _mark_coverage(self, payload: ApplicationPayload) -> None:
        """Record one CMDCL×CMD coverage-bitmap hit for a dispatched payload.

        Only coordinates the controller's own registry defines are ever
        marked (unknown classes and undefined commands degrade to the
        class- or nothing-level), so the bitmap can never claim phantom
        coverage of a (cmdcl, cmd) pair the specification lacks.
        """
        collector = obs.active_collector()
        if collector is None:
            return
        cls = self._registry.get(payload.cmdcl)
        if cls is None:
            return
        if payload.cmd is not None and cls.command(payload.cmd) is not None:
            collector.cover(payload.cmdcl, payload.cmd)
        else:
            collector.cover(payload.cmdcl)

    def _handle_encapsulation(
        self, src: int, payload: ApplicationPayload, encapsulated: bool, depth: int
    ) -> bool:
        """Unwrap the plaintext transport encapsulations.

        SUPERVISION (0x6C), CRC_16_ENCAP (0x56) and MULTI_CHANNEL
        (0x60/0x0D) all wrap an inner application command; the inner
        payload re-enters ordinary processing, bounded to two levels of
        nesting like real firmware.
        """
        params = payload.params
        if payload.cmdcl == 0x6C and payload.cmd == 0x01:
            # SUPERVISION_GET: session | length | inner...
            if len(params) < 2:
                return False
            session = params[0] & 0x3F
            inner_bytes = params[2:]
            status = 0x00  # NO_SUPPORT
            if len(inner_bytes) >= 2:
                try:
                    inner = ApplicationPayload.decode(inner_bytes)
                except FrameError:
                    inner = None
                if inner is not None and inner.cmdcl in self._supported_set:
                    self._process_payload(src, inner, encapsulated, depth + 1)
                    status = 0xFF  # SUCCESS
            self._send(
                src, ApplicationPayload(0x6C, 0x02, bytes([session, status, 0x00]))
            )
            return True
        if payload.cmdcl == 0x56 and payload.cmd == 0x01:
            # CRC_16_ENCAP: inner... | crc16 (over CMDCL..inner).
            if len(params) < 4:
                return False
            inner_bytes, crc = params[:-2], params[-2:]
            covered = bytes([payload.cmdcl, payload.cmd]) + inner_bytes
            if crc16(covered) != int.from_bytes(crc, "big"):
                self.stats.rejected_checksum += 1
                return True  # consumed: bad integrity, silently dropped
            try:
                inner = ApplicationPayload.decode(inner_bytes)
            except FrameError:
                return True
            self._process_payload(src, inner, encapsulated, depth + 1)
            return True
        if payload.cmdcl == 0x60 and payload.cmd == 0x0D:
            # MULTI_CHANNEL_CMD_ENCAP: src endpoint | dst endpoint | inner.
            if len(params) < 4:
                return False
            try:
                inner = ApplicationPayload.decode(params[2:])
            except FrameError:
                return True
            self._process_payload(src, inner, encapsulated, depth + 1)
            return True
        return False

    def _handle_stateful(self, src: int, payload: ApplicationPayload) -> bool:
        """Stateful handlers for the classes with real firmware storage.

        ASSOCIATION (0x85) maintains the group membership table and
        CONFIGURATION (0x70) the parameter store; both validate their
        inputs properly — these are the *well-implemented* parts of the
        firmware, in contrast to the planted Table III handlers.
        """
        if payload.cmdcl == 0x85 and payload.cmd is not None:
            return self._handle_association(src, payload)
        if payload.cmdcl == 0x70 and payload.cmd is not None:
            return self._handle_configuration(src, payload)
        return False

    def _handle_association(self, src: int, payload: ApplicationPayload) -> bool:
        params = payload.params
        if payload.cmd == 0x01 and len(params) >= 2:  # ASSOCIATION_SET
            group, member = params[0], params[1]
            if 1 <= group <= 5 and 1 <= member <= 232:
                members = self.associations.setdefault(group, [])
                if member not in members and len(members) < 8:
                    members.append(member)
            return True
        if payload.cmd == 0x02 and len(params) >= 1:  # ASSOCIATION_GET
            group = params[0]
            members = self.associations.get(group, [])
            body = bytes([group, 8, 0]) + bytes(members)
            self._send(src, ApplicationPayload(0x85, 0x03, body))
            return True
        if payload.cmd == 0x04 and len(params) >= 2:  # ASSOCIATION_REMOVE
            group, member = params[0], params[1]
            members = self.associations.get(group)
            if members and member in members:
                members.remove(member)
            return True
        if payload.cmd == 0x05:  # GROUPINGS_GET
            self._send(
                src, ApplicationPayload(0x85, 0x06, bytes([len(self.associations) or 1]))
            )
            return True
        return False

    def _handle_configuration(self, src: int, payload: ApplicationPayload) -> bool:
        params = payload.params
        if payload.cmd == 0x04 and len(params) >= 3:  # CONFIGURATION_SET
            number, size = params[0], params[1]
            if size in (1, 2, 4) and len(params) >= 2 + size:
                value = int.from_bytes(params[2 : 2 + size], "big")
                self.config_params[number] = value
            return True
        if payload.cmd == 0x05 and len(params) >= 1:  # CONFIGURATION_GET
            number = params[0]
            value = self.config_params.get(number, 0)
            body = bytes([number, 0x01, value & 0xFF])
            self._send(src, ApplicationPayload(0x70, 0x06, body))
            return True
        return False

    def _respond_normally(self, src: int, payload: ApplicationPayload) -> None:
        """Well-implemented handling of a supported class.

        GET-kind commands earn the matching REPORT; anything else earns an
        APPLICATION_BUSY so active probing (validation testing) always sees
        *some* application-level response from a supported class.
        """
        cls = self._registry.get(payload.cmdcl)
        cmd = cls.command(payload.cmd) if (cls and payload.cmd is not None) else None
        if cls is not None and cmd is not None:
            if cmd.kind is CommandKind.GET:
                response = self._report_cache.get(cls.id)
                if cls.id not in self._report_cache:
                    report = next(
                        (c for c in cls.commands if c.kind is CommandKind.REPORT),
                        None,
                    )
                    response = (
                        None
                        if report is None
                        else ApplicationPayload(
                            cls.id,
                            report.id,
                            bytes(p.legal_values()[0] for p in report.params),
                        )
                    )
                    self._report_cache[cls.id] = response
                if response is not None:
                    self._send(src, response)
                    return
            elif cmd.kind in (CommandKind.REPORT, CommandKind.NOTIFICATION):
                # Unsolicited device status: consumed, surfaced to the host
                # application, never answered over the air.
                if self.host is not None:
                    self.host.notify(
                        self._clock.now,
                        f"node {src} reported {cls.name}/{cmd.name}",
                    )
                return
        self._send(src, _BUSY_PAYLOAD)

    # -- effects ---------------------------------------------------------------------------

    def _hang(self, duration: float) -> None:
        self._hang_until = max(self._hang_until, self._clock.now + duration)

    def _apply_effect(
        self,
        bug: Vulnerability,
        ctx: TriggerContext,
        src: int,
        payload: ApplicationPayload,
    ) -> None:
        self._events.append(
            TriggeredEvent(
                self._clock.now, bug.bug_id, None, bug.effect.value, payload.encode()
            )
        )
        if bug.effect is EffectType.CONTROLLER_HANG:
            self._hang(bug.duration_s or 0.0)
        elif bug.effect is EffectType.HOST_CRASH:
            if self.host is not None:
                self.host.crash(self._clock.now, f"bug #{bug.bug_id:02d}")
        elif bug.effect is EffectType.HOST_DOS:
            if self.host is not None:
                self.host.deny_service(self._clock.now, f"bug #{bug.bug_id:02d}")
        else:
            self._apply_memory_effect(bug, ctx)

    def _resolve_target(self, node_id: int) -> Optional[int]:
        """The buggy NVM indexer: unknown ids fall back to array slot zero."""
        if node_id in self.nvm:
            return node_id
        ids = self.nvm.node_ids()
        return ids[0] if ids else None

    def _apply_memory_effect(self, bug: Vulnerability, ctx: TriggerContext) -> None:
        requested = ctx.param(0, default=0)
        device_class = ctx.param(4, default=GenericDeviceClass.BINARY_SWITCH)
        if bug.effect is EffectType.MEMORY_MODIFY:
            target = self._resolve_target(requested)
            if target is not None:
                # Figure 8: the lock's record degrades to a routing slave.
                self.nvm.update(
                    target,
                    basic=BasicDeviceClass.ROUTING_SLAVE,
                    generic=device_class if 0 < device_class <= 0xFF else 0x10,
                    secure=False,
                    granted_keys=0x00,
                )
        elif bug.effect is EffectType.MEMORY_INSERT:
            # Figure 9: rogue controller nodes appear out of thin air.
            rogue_id = requested
            if not 1 <= rogue_id <= 232 or rogue_id == self.node_id or rogue_id in self.nvm:
                rogue_id = self._free_node_id()
            if rogue_id is not None:
                self.nvm.raw_write(
                    NodeRecord(
                        node_id=rogue_id,
                        basic=BasicDeviceClass.STATIC_CONTROLLER,
                        generic=GenericDeviceClass.STATIC_CONTROLLER,
                        name="rogue",
                    )
                )
        elif bug.effect is EffectType.MEMORY_REMOVE:
            target = self._resolve_target(requested)
            if target is not None:
                self.nvm.raw_delete(target)
        elif bug.effect is EffectType.MEMORY_OVERWRITE:
            # Figure 11: the device table becomes a page of fakes.
            fakes = [
                NodeRecord(node_id=fake_id, generic=device_class if device_class > 0 else 0x10, name="fake")
                for fake_id in (10, 20, 30, 200)
            ]
            self.nvm.raw_overwrite_all(fakes)
        elif bug.effect is EffectType.MEMORY_WAKEUP_CLEAR:
            target = self._resolve_target(requested)
            cleared = target is not None and self.nvm.raw_clear_wakeup(target)
            if not cleared:
                for node_id in self.nvm.node_ids():
                    if self.nvm.raw_clear_wakeup(node_id):
                        break
        else:  # pragma: no cover - exhaustive over MEMORY_EFFECTS
            raise SimulatorError(f"unhandled memory effect {bug.effect}")

    def _free_node_id(self) -> Optional[int]:
        for candidate in range(200, 233):
            if candidate != self.node_id and candidate not in self.nvm:
                return candidate
        return None


def _default_region():
    from ..zwave.constants import Region

    return Region.US
