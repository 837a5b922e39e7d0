"""Feedback oracles: liveness pings and operator-side observation.

Section IV-A ("Feedback & crash verification"): *"During fuzzing, we assess
test cases by monitoring controller liveliness using NOP ping packets.  Any
delays, crashes, or unresponsiveness indicate potential vulnerabilities."*

Three oracles cooperate:

* :class:`LivenessMonitor` — the NOP ping over the air (pure black-box);
* the **memory oracle** — in the paper the operator watches the Z-Wave PC
  Controller program's node list (Figures 8-11 are its screenshots); here
  :class:`SutObserver` reads the same information from the virtual
  controller's NVM and diffs it against a golden snapshot;
* the **host oracle** — the operator notices the PC program or smartphone
  app dying (bugs #05/#06/#13).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Tuple

from ..radio.clock import SimClock
from ..radio.transceiver import Transceiver
from ..simulator.controller import VirtualController
from ..simulator.host import HostState
from ..simulator.memory import MemoryChange, NodeTable, Snapshot
from ..simulator.testbed import SystemUnderTest
from ..zwave.frame import is_raw_ack, make_nop
from .fingerprint import SCANNER_NODE_ID


class ObservedKind(Enum):
    """The fuzzer-visible classification of a misbehaviour."""

    HANG = "hang"
    MEMORY_MODIFY = "memory_modify"
    MEMORY_INSERT = "memory_insert"
    MEMORY_REMOVE = "memory_remove"
    MEMORY_OVERWRITE = "memory_overwrite"
    MEMORY_WAKEUP_CLEAR = "memory_wakeup_clear"
    HOST_CRASH = "host_crash"
    HOST_DOS = "host_dos"


@dataclass(frozen=True)
class Observation:
    """Everything the oracles saw after one test packet."""

    responsive: bool
    kind: Optional[ObservedKind] = None
    memory_changes: Tuple[MemoryChange, ...] = ()

    @property
    def finding(self) -> bool:
        return self.kind is not None


class LivenessMonitor:
    """NOP-ping the controller and wait for the MAC acknowledgement."""

    def __init__(
        self,
        dongle: Transceiver,
        clock: SimClock,
        controller: VirtualController,
        timeout: float = 0.5,
    ):
        self._dongle = dongle
        self._clock = clock
        self._controller = controller
        self._node_id = controller.node_id
        self.timeout = timeout
        self.pings_sent = 0
        self.pings_lost = 0
        # Every ping sends the identical NOP bytes; build the frame once
        # (its encoding memoises on the instance) instead of per ping.
        self._nop = make_nop(controller.home_id, SCANNER_NODE_ID, controller.node_id)

    def ping(self) -> bool:
        """Send one NOP; ``True`` when the controller acknowledges in time."""
        self.pings_sent += 1
        self._dongle.clear_captures()
        self._dongle.inject(self._nop)
        self._clock.advance(self.timeout)
        node_id = self._node_id
        for raw in self._dongle.capture_bytes():
            if is_raw_ack(raw, node_id, SCANNER_NODE_ID):
                return True
        self.pings_lost += 1
        return False

    def ping_until_responsive(self, max_wait: float, interval: float = 1.0) -> Optional[float]:
        """Keep pinging; return seconds until recovery, ``None`` if never.

        Used by PoC verification to measure the Table III durations.
        The pings a hang provably swallows are settled first, in one go
        (:meth:`_settle_lost_pings`); the loop sends the rest.
        """
        start = self._clock.now
        wait = max(interval - self.timeout, 0.0)
        arrival = self._fast_forward_delay()
        if arrival is not None:
            self._settle_lost_pings(start, max_wait, wait, arrival)
        while self._clock.now - start <= max_wait:
            if self.ping():
                return self._clock.now - start
            self._clock.advance(wait)
        return None

    def _fast_forward_delay(self) -> Optional[float]:
        """How long a ping's NOP takes to reach the controller, when a hung
        controller can only drop it; ``None`` otherwise.

        The controller would count the NOP as dropped while hung (see
        :meth:`VirtualController.drops_while_hung`), and the channel is
        clean with every receiver but the controller ignoring the NOP
        (see :meth:`RadioMedium.unheard_except`, which reports the delay).
        """
        controller = self._controller
        if not controller.drops_while_hung(self._nop.encode()):
            return None
        return self._dongle.unheard_except(self._nop, controller.name)

    def _settle_lost_pings(
        self, start: float, max_wait: float, wait: float, arrival: float
    ) -> None:
        """Book the leading pings of a wait that provably go unanswered.

        With no event pending nothing can happen between pings, so a
        ping is lost exactly when the controller is still hung at its
        NOP's arrival, *arrival* seconds after the send.  Those pings are
        counted with the same float additions that :meth:`ping`'s and the
        loop's ``clock.advance`` calls make, then booked in one go: the
        counters end where the loop's would, the loss draws come in the
        loop's order, and the clock lands on the loop's next send time.
        """
        clock = self._clock
        if clock.pending_events:
            return
        controller = self._controller
        timeout = self.timeout
        now = clock.now
        lost = 0
        while now - start <= max_wait and controller.hung_at(now + arrival):
            lost += 1
            now = now + timeout
            now = now + wait
        if not lost:
            return
        self.pings_sent += lost
        self.pings_lost += lost
        self._dongle.clear_captures()
        heard = self._dongle.inject_unheard(self._nop, controller.name, lost)
        controller.book_dropped_while_hung(heard)
        clock.advance_to(now)


def classify_memory_changes(changes: List[MemoryChange]) -> Optional[ObservedKind]:
    """Map an NVM diff onto the paper's memory-tampering categories."""
    if not changes:
        return None
    added = sum(1 for c in changes if c.kind == "added")
    removed = sum(1 for c in changes if c.kind == "removed")
    modified = [c for c in changes if c.kind == "modified"]
    if added and removed:
        return ObservedKind.MEMORY_OVERWRITE
    if added:
        return ObservedKind.MEMORY_INSERT
    if removed:
        return ObservedKind.MEMORY_REMOVE
    # Pure modifications: distinguish the wake-up wipe from general tampering.
    only_wakeup = all(
        c.before is not None
        and c.after is not None
        and c.after == _with_wakeup(c.before, None)
        for c in modified
    )
    if only_wakeup:
        return ObservedKind.MEMORY_WAKEUP_CLEAR
    return ObservedKind.MEMORY_MODIFY


def _with_wakeup(record, value):
    from dataclasses import replace

    return replace(record, wakeup_interval=value)


class SutObserver:
    """The operator's eyes on the system under test.

    Holds the golden NVM snapshot, detects memory tampering and host
    failures, and performs the operator-style recovery actions (restore the
    node database from backup, restart the program, power-cycle the hub)
    that keep a long fuzzing trial going.
    """

    def __init__(self, sut: SystemUnderTest, recovery_time: float = 2.0):
        self._sut = sut
        self._golden: Snapshot = sut.controller.nvm.snapshot()
        self.recovery_time = recovery_time
        self.recoveries = 0
        # NVM version whose diff against the golden was last seen empty.
        # The oracle runs after every packet, but the table only changes
        # when a memory bug fires; matching versions prove "no tampering"
        # without re-snapshotting and re-diffing the whole table.
        self._clean_version: Optional[int] = None

    @property
    def golden(self) -> Snapshot:
        return self._golden

    def rebaseline(self) -> None:
        """Accept the current NVM as the new golden state."""
        self._golden = self._sut.controller.nvm.snapshot()
        self._clean_version = None

    # -- detection --------------------------------------------------------------

    def check_memory(self) -> Tuple[Optional[ObservedKind], Tuple[MemoryChange, ...]]:
        """Diff the NVM against the golden snapshot and classify tampering.

        The NVM version counter short-circuits the common case: when the
        table has not changed since the last clean check, no snapshot or
        diff is taken at all.
        """
        nvm = self._sut.controller.nvm
        version = nvm.version
        if version == self._clean_version:
            return None, ()
        changes = NodeTable.diff(self._golden, nvm.snapshot())
        if not changes:
            self._clean_version = version
        return classify_memory_changes(changes), tuple(changes)

    def check_host(self) -> Optional[ObservedKind]:
        state = self._sut.host.state
        if state is HostState.CRASHED:
            return ObservedKind.HOST_CRASH
        if state is HostState.DENIED:
            return ObservedKind.HOST_DOS
        return None

    # -- recovery -----------------------------------------------------------------

    def restore_memory(self) -> None:
        self._sut.controller.nvm.restore(self._golden)
        self.recoveries += 1

    def restart_host(self) -> None:
        self._sut.host.restart(self._sut.clock.now)
        self.recoveries += 1

    def power_cycle(self) -> None:
        """Reboot the hung controller and absorb the reboot delay."""
        self._sut.controller.power_cycle()
        self._sut.clock.advance(self.recovery_time)
        self.recoveries += 1
