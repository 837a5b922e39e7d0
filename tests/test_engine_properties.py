"""Seeded property suite for the batched event engine (ISSUE 10).

~500 generated cases across three properties that together pin the
ordering and rng contracts the engine migration relied on:

* **heap tie-break determinism** (200 seeds) — events sharing a fire
  time drain in schedule order, because ``schedule``/``schedule_call``
  share one monotonically increasing id space used as the heap's
  tie-break key; cancellation never perturbs the order of survivors;
* **rng draw identity under caching** (200 seeds) — the loss draw
  happens for every endpoint above sensitivity, even on perfect links,
  and cache state (delivery-plan, rssi, airtime) never changes rng
  consumption: a medium whose caches are invalidated before every
  transmission draws the exact same random stream as a warm one;
* **reference-model equivalence** (100 seeds) — the batched delivery of
  a clean-channel transmission matches an independent per-endpoint
  reimplementation of the retired legacy loop (same filter chain, same
  draw order, same delivery order and timestamps);
* **stamp is arrival time** (50 seeds) — under drop, delay and duplicate
  injection, every reception's timestamp equals the clock's ``now`` when
  its callback runs.
"""

import math
import random
from types import SimpleNamespace

import pytest

from repro.radio.clock import SimClock
from repro.radio.medium import (
    RadioMedium,
    loss_probability,
    received_power_dbm,
)
from repro.zwave.constants import Region

HEAP_SEEDS = 200
RNG_SEEDS = 200
MODEL_SEEDS = 100
STAMP_SEEDS = 50

FRAME = bytes(range(20))


class CountingRandom(random.Random):
    """A ``random.Random`` that logs every ``random()`` draw it serves."""

    def __init__(self, seed):
        super().__init__(seed)
        self.draws = []

    def random(self):
        value = super().random()
        self.draws.append(value)
        return value


def _random_topology(rng, medium=None):
    """Attach 3-8 endpoints at seeded positions; returns their specs.

    Distances are drawn across the whole link-quality range: perfect
    links, marginal ones (probabilistic loss draws) and sub-sensitivity
    listeners that never reach the draw.
    """
    specs = []
    n = rng.randrange(3, 9)
    for index in range(n):
        name = f"ep{index}"
        position = (rng.uniform(0.0, 400.0), rng.uniform(0.0, 10.0))
        region = Region.EU if rng.random() < 0.85 else Region.US
        specs.append((name, position, region))
        if medium is not None:
            medium.attach(name, position, region, lambda reception: None)
    return specs


# -- property 1: heap tie-break determinism -------------------------------------


@pytest.mark.parametrize("seed", range(HEAP_SEEDS))
def test_same_tick_events_fire_in_schedule_order(seed):
    rng = random.Random(seed)
    clock = SimClock()
    log = []
    scheduled = []  # (event_id, fire_delay, marker)
    for marker in range(rng.randrange(5, 40)):
        # A handful of shared fire times forces heavy tie-breaking.
        delay = rng.choice((0.001, 0.002, 0.002, 0.003, 0.003, 0.003))
        if rng.random() < 0.5:
            event_id = clock.schedule(delay, lambda m=marker: log.append(m))
        else:
            event_id = clock.schedule_call(delay, log.append, marker)
        scheduled.append((event_id, delay, marker))

    # Ids are strictly increasing across both schedule flavours — the
    # shared key space IS the tie-break contract.
    ids = [event_id for event_id, _, _ in scheduled]
    assert ids == sorted(ids) and len(set(ids)) == len(ids)

    cancelled = set()
    for event_id, _, marker in scheduled:
        if rng.random() < 0.2:
            clock.cancel(event_id)
            cancelled.add(marker)

    clock.advance(1.0)
    expected = [
        marker
        for event_id, delay, marker in sorted(scheduled, key=lambda s: (s[1], s[0]))
        if marker not in cancelled
    ]
    assert log == expected


# -- property 2: rng draw identity under caching --------------------------------


@pytest.mark.parametrize("seed", range(RNG_SEEDS))
def test_cache_state_never_changes_rng_consumption(seed):
    def build():
        clock = SimClock()
        counting = CountingRandom(seed)
        medium = RadioMedium(clock, rng=counting)
        topo_rng = random.Random(seed ^ 0xC0FFEE)
        # Skip the first draw, so each seed keeps the topology it has
        # always been checked on.
        topo_rng.random()
        _random_topology(topo_rng, medium)
        return clock, medium, counting

    clock_a, warm, draws_a = build()
    clock_b, cold, draws_b = build()

    senders = [name for name in warm.endpoints()]
    script_rng = random.Random(seed + 1)
    for step in range(25):
        sender = script_rng.choice(senders)
        frame = FRAME + bytes([step])
        warm.transmit(sender, frame, rate_kbaud=100.0)
        cold._invalidate_topology()  # cold caches on every transmission
        cold.transmit(sender, frame, rate_kbaud=100.0)
        clock_a.advance(0.05)
        clock_b.advance(0.05)

    assert draws_a.draws == draws_b.draws
    assert warm.stats == cold.stats


@pytest.mark.parametrize("seed", range(RNG_SEEDS, RNG_SEEDS + MODEL_SEEDS))
def test_batched_delivery_matches_reference_model(seed):
    """Differential oracle: an in-test reimplementation of the retired
    per-endpoint legacy loop predicts draws, losses, delivery order and
    timestamps; the batched engine must reproduce all of them exactly."""
    clock = SimClock()
    counting = CountingRandom(seed)
    medium = RadioMedium(clock, rng=counting)
    topo_rng = random.Random(seed)
    specs = _random_topology(topo_rng)
    received = []
    for name, position, region in specs:
        medium.attach(
            name,
            position,
            region,
            (lambda n: lambda r: received.append((n, r.raw, r.timestamp)))(name),
        )

    model_rng = CountingRandom(seed)
    expected_received = []
    expected_losses = 0
    script_rng = random.Random(seed + 1)
    for step in range(20):
        sender, sender_pos, sender_region = script_rng.choice(specs)
        frame = FRAME + bytes([step])
        transmit_at = clock.now
        airtime = medium.transmit(sender, frame, rate_kbaud=100.0)
        # Reference model: the legacy filter/draw chain, endpoint order.
        for name, position, region in specs:
            if name == sender or region != sender_region:
                continue
            rssi = received_power_dbm(math.dist(sender_pos, position))
            if rssi < -95.0:
                expected_losses += 1
                continue
            if model_rng.random() < loss_probability(rssi):
                expected_losses += 1
                continue
            # Timestamp contract: the reception is stamped when the frame's
            # last bit arrives, one airtime after transmit (no fault
            # offset here) — bit-exact float association included.
            expected_received.append((name, frame, transmit_at + airtime))
        clock.advance(0.05)

    assert counting.draws == model_rng.draws
    assert received == expected_received
    assert medium.stats["losses"] == expected_losses
    assert medium.stats["deliveries"] == len(expected_received)


# -- property 4: the stamp is the arrival time -----------------------------------


class SeededFaults:
    """A fault injector drawing drop, delay and duplicate per transmission."""

    def __init__(self, seed):
        self.rng = random.Random(seed)

    def on_transmit(self, sender, frame_bytes):
        rng = self.rng
        if rng.random() < 0.3:
            return None
        return SimpleNamespace(
            drop=rng.random() < 0.2,
            corrupt=None,
            extra_delay=rng.choice((0.0, 0.001, 0.013, 0.25)),
            duplicate=rng.random() < 0.4,
        )


@pytest.mark.parametrize("seed", range(STAMP_SEEDS))
def test_every_stamp_is_the_clock_at_its_callback(seed):
    clock = SimClock()
    medium = RadioMedium(clock, rng=random.Random(seed))
    medium.fault_injector = SeededFaults(seed)
    stamps = []
    topo_rng = random.Random(seed)
    for index in range(topo_rng.randrange(2, 6)):
        # Within 60 m of each other: most links deliver.
        position = (topo_rng.uniform(0.0, 60.0), topo_rng.uniform(0.0, 10.0))
        medium.attach(
            f"ep{index}", position, Region.EU,
            lambda r: stamps.append((r.timestamp, clock.now)),
        )
    senders = list(medium.endpoints())
    script_rng = random.Random(seed + 1)
    for step in range(30):
        medium.transmit(script_rng.choice(senders), FRAME + bytes([step]), rate_kbaud=100.0)
        clock.advance(script_rng.choice((0.0, 0.002, 0.05)))
    clock.advance(1.0)
    assert stamps
    assert all(stamp == now for stamp, now in stamps)
