"""The shared RF medium: propagation, attenuation and delivery.

Devices and the attacker's dongle attach to one :class:`RadioMedium` at
physical positions.  A transmission is delivered to every attached endpoint
tuned to the same region whose received signal strength clears its
sensitivity floor; delivery is scheduled on the simulated clock after the
frame's airtime.  An endpoint attached with an address is handed only the
frames for its own network and node.  A log-distance path-loss model gives
the 10-70 m attack range of Figure 2 realistic behaviour: near receivers
always hear the frame, far ones suffer increasing loss until the link dies.

The medium carries demodulated frame bytes, as the dongle hands them over;
the PHY bitstream codec in :mod:`.signal` is the line coding those bytes
would ride on air, not a delivery path.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable, Dict, FrozenSet, List, NamedTuple, Optional, Tuple

from ..errors import RadioError
from ..zwave import constants as const
from ..zwave.constants import Region
from .clock import SimClock
from .signal import airtime_seconds

#: Path-loss model constants (log-distance, sub-GHz indoor/outdoor mix).
TX_POWER_DBM = 0.0
PATH_LOSS_AT_1M_DB = 40.0
PATH_LOSS_EXPONENT = 2.7
SENSITIVITY_DBM = -95.0
#: Above this strength the link is perfect; below, loss ramps linearly.
PERFECT_LINK_DBM = -80.0


def received_power_dbm(distance_m: float) -> float:
    """Received power at *distance_m* under the log-distance model."""
    d = max(distance_m, 0.1)
    return TX_POWER_DBM - PATH_LOSS_AT_1M_DB - 10.0 * PATH_LOSS_EXPONENT * math.log10(d)


def loss_probability(rssi_dbm: float) -> float:
    """Frame-loss probability as a function of received power."""
    if rssi_dbm >= PERFECT_LINK_DBM:
        return 0.0
    if rssi_dbm <= SENSITIVITY_DBM:
        return 1.0
    return (PERFECT_LINK_DBM - rssi_dbm) / (PERFECT_LINK_DBM - SENSITIVITY_DBM)


class Reception(NamedTuple):
    """What an endpoint's receive callback is handed.

    A named tuple: one is allocated per kept delivery, the hottest
    allocation site in a fuzzing campaign, and :meth:`RadioMedium._deliver`
    builds it with ``tuple.__new__``, in C.
    """

    raw: bytes
    rssi_dbm: float
    timestamp: float
    rate_kbaud: float


#: Endpoint receive callback signature.
ReceiveCallback = Callable[[Reception], None]

#: Shortest buffer that carries a MAC header and checksum.
_MIN_FRAME_SIZE = const.MAC_HEADER_SIZE + const.CS8_TRAILER_SIZE


def _address_key(raw: bytes) -> Optional[Tuple[int, int]]:
    """The ``(home id, destination)`` pair an addressed endpoint filters
    on, or ``None`` for a buffer too short to carry a MAC header."""
    if len(raw) < _MIN_FRAME_SIZE:
        return None
    return int.from_bytes(raw[const.HOME_ID_SLICE], "big"), raw[const.DST_OFFSET]


@dataclass
class _Endpoint:
    """Book-keeping for one attached radio.

    *accepts* is ``None`` for an unaddressed endpoint, which hears every
    frame; an addressed one keeps only frames whose :func:`_address_key`
    is in the set — its own node id or broadcast, on its home id.
    """

    name: str
    position: Tuple[float, float]
    region: Region
    callback: ReceiveCallback
    accepts: Optional[FrozenSet[Tuple[int, int]]] = None
    enabled: bool = True
    sensitivity_dbm: float = SENSITIVITY_DBM


class RadioMedium:
    """A single shared sub-GHz channel."""

    def __init__(self, clock: SimClock, rng: Optional[random.Random] = None):
        """*rng* draws the per-receiver frame losses of marginal links.

        The channel is ideally arbitrated: transmissions whose airtimes
        overlap both arrive, which matches the CSMA behaviour of real
        Z-Wave radios closely enough for every experiment, and a frame
        arrives with the bytes it was sent with unless a fault injector
        rewrites them."""
        self._clock = clock
        self._rng = rng or random.Random(0)
        self._endpoints: Dict[str, _Endpoint] = {}
        self._transmissions = 0
        self._deliveries = 0
        self._losses = 0
        #: Optional fault-injection hook (repro.faults.MediumFaultInjector);
        #: consulted once per transmission when set.
        self.fault_injector = None
        # Per-sender delivery plans: the sender/enabled/region/sensitivity
        # filter chain and the log10 path-loss model are pure functions of
        # topology and power state, so they run once per (sender, topology)
        # instead of once per transmit.  A plan is (records, out_of_range):
        # records are (endpoint, rssi, loss probability) for the endpoints
        # that reach the rng draw — in listener order, so rng consumption
        # is unchanged — and out_of_range counts the sub-sensitivity
        # listeners the legacy loop tallied as losses on every transmission.
        # Invalidated on attach / detach and on every enabled flip
        # (the only write path is :meth:`set_enabled`).
        self._plan_cache: Dict[str, Tuple[Tuple[Tuple[_Endpoint, float, float], ...], int]] = {}

    # -- attachment -------------------------------------------------------------

    def attach(
        self,
        name: str,
        position: Tuple[float, float],
        region: Region,
        callback: ReceiveCallback,
        address: Optional[Tuple[int, int]] = None,
        sensitivity_dbm: float = SENSITIVITY_DBM,
    ) -> None:
        """Register an endpoint; *name* must be unique on this medium.

        With *address* ``(home_id, node_id)`` the endpoint is addressed:
        its callback runs only for frames at least a MAC header plus
        checksum long whose home-id bytes match and whose destination is
        *node_id* or broadcast — the check a slave's MAC layer makes before
        anything else, moved here so the frames it would drop never cost a
        ``Reception`` or a callback.  ``None`` hears every frame, as the
        sniffer, controllers and repeaters must.
        """
        if name in self._endpoints:
            raise RadioError(f"endpoint {name!r} already attached")
        accepts = None
        if address is not None:
            home_id, node_id = address
            accepts = frozenset({(home_id, node_id), (home_id, const.BROADCAST_NODE_ID)})
        self._endpoints[name] = _Endpoint(
            name, position, region, callback, accepts, True, sensitivity_dbm
        )
        self._invalidate_topology()

    def detach(self, name: str) -> None:
        self._endpoints.pop(name, None)
        self._invalidate_topology()

    def set_enabled(self, name: str, enabled: bool) -> None:
        """Power an endpoint's receiver on or off."""
        endpoint = self._endpoints.get(name)
        if endpoint is None:
            raise RadioError(f"no endpoint named {name!r}")
        endpoint.enabled = enabled
        self._plan_cache.clear()

    def endpoints(self) -> List[str]:
        return sorted(self._endpoints)

    def _invalidate_topology(self) -> None:
        self._plan_cache.clear()

    # -- statistics --------------------------------------------------------------

    @property
    def stats(self) -> Dict[str, int]:
        return {
            "transmissions": self._transmissions,
            "deliveries": self._deliveries,
            "losses": self._losses,
        }

    # -- transmission --------------------------------------------------------------

    def transmit(self, sender: str, frame_bytes: bytes, rate_kbaud: float) -> float:
        """Broadcast *frame_bytes* from *sender*; returns the airtime.

        Each in-range endpoint receives the bytes after the airtime
        elapses.  Marginal links (between the perfect-link and sensitivity
        thresholds) drop frames probabilistically; a fault injector, when
        set, may drop, rewrite, delay or duplicate the transmission first.
        """
        source = self._endpoints.get(sender)
        if source is None:
            raise RadioError(f"unknown transmitter {sender!r}")
        self._transmissions += 1
        airtime = airtime_seconds(frame_bytes, rate_kbaud)
        extra_delay = 0.0
        duplicate = False
        if self.fault_injector is not None:
            action = self.fault_injector.on_transmit(sender, frame_bytes)
            if action is not None:
                if action.drop:
                    self._losses += 1
                    return airtime
                if action.corrupt is not None:
                    frame_bytes = action.corrupt
                extra_delay = action.extra_delay
                duplicate = action.duplicate
        reachable, out_of_range = self._plan(sender, source)
        self._losses += out_of_range
        # The loss draw happens for every endpoint above sensitivity even on
        # a perfect link, in listener order — the plan must never change
        # rng consumption.
        rng_random = self._rng.random
        records = [record for record in reachable if rng_random() >= record[2]]
        self._losses += len(reachable) - len(records)
        if records:
            # A duplicated transmission arrives a second time one airtime
            # after the original (back-to-back repeat on the channel).
            offsets = (
                (extra_delay, extra_delay + airtime) if duplicate else (extra_delay,)
            )
            for offset in offsets:
                self._clock.schedule_call(
                    airtime + offset,
                    self._deliver,
                    (frame_bytes, records, rate_kbaud),
                )
        return airtime

    # -- known-unheard transmissions -------------------------------------------
    #
    # A transmission whose every delivery is known to change nothing but
    # counters need not go through the event queue.  The liveness oracle's
    # hang-wait sends such frames by the hundred: a NOP to a hung
    # controller, which the slaves' address filters drop.

    def unheard_except(
        self, sender: str, frame_bytes: bytes, rate_kbaud: float, listener: str
    ) -> Optional[float]:
        """The delay after which *listener* would receive *frame_bytes*
        sent by *sender* now, when no other callback would hear it;
        ``None`` otherwise.

        Not ``None``, when no fault injector is set, if every other
        endpoint the transmission can reach (a plan holds only enabled
        ones) is addressed and rejects the frame's address key, so that
        its delivery only counts.  What *listener* does with the frame is the
        caller's to know.
        """
        if self.fault_injector is not None:
            return None
        source = self._endpoints.get(sender)
        if source is None:
            return None
        key = _address_key(frame_bytes)
        if not all(
            endpoint.name == listener
            or (endpoint.accepts is not None and key not in endpoint.accepts)
            for endpoint, _, _ in self._plan(sender, source)[0]
        ):
            return None
        # transmit schedules a fault-free delivery at airtime + 0.0.
        return airtime_seconds(frame_bytes, rate_kbaud)

    def transmit_unheard(self, sender: str, listener: str, count: int) -> int:
        """Book *count* transmissions :meth:`unheard_except` cleared, without the queue.

        Makes the counter updates, the loss draws (in transmission and
        listener order) and the clock event ids that *count* calls of
        :meth:`transmit` and the deliveries they schedule would make.
        Returns how many of *listener*'s deliveries were kept: those
        receptions are the caller's to book.
        """
        source = self._endpoints[sender]
        reachable, out_of_range = self._plan(sender, source)
        draws = [(loss_p, endpoint.name == listener) for endpoint, _, loss_p in reachable]
        rng_random = self._rng.random
        kept = heard = batches = 0
        for _ in range(count):
            batch = 0
            for loss_p, is_listener in draws:
                if rng_random() >= loss_p:
                    batch += 1
                    heard += is_listener
            kept += batch
            batches += batch > 0
        self._transmissions += count
        self._losses += count * (out_of_range + len(reachable)) - kept
        self._deliveries += kept
        self._clock.elide_events(batches)
        return heard

    def _plan(
        self, sender: str, source: _Endpoint
    ) -> Tuple[Tuple[Tuple[_Endpoint, float, float], ...], int]:
        plan = self._plan_cache.get(sender)
        if plan is None:
            plan = self._plan_cache[sender] = self._build_plan(sender, source)
        return plan

    def _build_plan(
        self, sender: str, source: _Endpoint
    ) -> Tuple[Tuple[Tuple[_Endpoint, float, float], ...], int]:
        """Run the listener filter chain once for *sender*.

        Returns the endpoints that reach the loss draw (in listener order,
        with their link rssi and loss probability) plus the count of
        listeners below their sensitivity floor, which the per-transmit
        loop booked as losses each time.
        """
        reachable: List[Tuple[_Endpoint, float, float]] = []
        out_of_range = 0
        for endpoint in self._endpoints.values():
            if endpoint.name == sender or not endpoint.enabled:
                continue
            if endpoint.region != source.region:
                continue
            rssi = received_power_dbm(math.dist(source.position, endpoint.position))
            if rssi < endpoint.sensitivity_dbm:
                out_of_range += 1
                continue
            reachable.append((endpoint, rssi, loss_probability(rssi)))
        return tuple(reachable), out_of_range

    # -- delivery ------------------------------------------------------------------
    #
    # Delivery runs at the batch's fire time, one clock event per
    # transmission (and offset).  Legacy pushed one closure per (endpoint,
    # offset) with consecutive seq numbers and a shared fire time, so the
    # heap drained them in listener order anyway — the batch replays
    # exactly that order, with one heap push per fire time instead of one
    # per delivery.
    #
    # The enabled check happens per record, immediately before its
    # callback, so a callback earlier in the batch that powers a later
    # listener down still suppresses that delivery.  Callbacks never
    # advance the clock, so every record of the batch sees the same
    # ``now``, which is the reception's timestamp: the batch fires when
    # the frame's last bit arrives (transmit time + airtime + offset).
    # The address filter runs last, on the bytes actually delivered, and
    # a filtered delivery still counts in ``deliveries``.

    def _deliver(self, batch: tuple) -> None:
        """Deliver one transmission: shared bytes, plan records."""
        raw, records, rate_kbaud = batch
        timestamp = self._clock.now
        key = _address_key(raw)
        new_reception = tuple.__new__  # skips the named tuple's Python-level __new__
        for endpoint, rssi, _ in records:
            if not endpoint.enabled:
                continue
            self._deliveries += 1
            accepts = endpoint.accepts
            if accepts is not None and key not in accepts:
                continue
            endpoint.callback(
                new_reception(Reception, (raw, rssi, timestamp, rate_kbaud))
            )
