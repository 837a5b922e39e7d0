"""Property tests for fault-plan compilation (~600 seeded cases).

Mirrors ``tests/test_obs_properties.py``: 100 seeds through every
property.  The contracts under test are the ones the resilience audit's
byte-identity stands on — compilation is a pure function of
``(plan, seed)``, plan serialisation round-trips losslessly, controller
event schedules are order- and horizon-stable, medium decision streams
replay exactly, and worker tokens survive their token round trip and do
not read the seed (so one schedule gives a whole unit list its tokens).
"""

import json
import random

import pytest

from repro.faults.plan import (
    KINDS_BY_LAYER,
    LAYER_CAMPAIGN,
    LAYER_CONTROLLER,
    LAYER_MEDIUM,
    LAYER_WORKER,
    FaultPlan,
    FaultSpec,
    dumps_plan,
    loads_plan,
)
from repro.faults.schedule import FaultSchedule, derive_seed
from repro.faults.worker import WorkerFault

N_SEEDS = 100


def _random_plan(rng: random.Random) -> FaultPlan:
    """A reproducible, always-valid random plan touching random layers."""
    specs = []
    for _ in range(rng.randrange(1, 7)):
        layer = rng.choice((LAYER_MEDIUM, LAYER_CONTROLLER, LAYER_WORKER, LAYER_CAMPAIGN))
        kind = rng.choice(KINDS_BY_LAYER[layer])
        if layer == LAYER_MEDIUM or kind == "slow-ack":
            spec = FaultSpec(
                layer, kind, rate=round(rng.uniform(0.0, 1.0), 6),
                magnitude=round(rng.uniform(0.0, 2.0), 6),
            )
        elif layer == LAYER_CONTROLLER:
            spec = FaultSpec(
                layer, kind, every_s=round(rng.uniform(10.0, 600.0), 6),
                magnitude=round(rng.uniform(0.0, 10.0), 6),
            )
        elif layer == LAYER_WORKER:
            spec = FaultSpec(
                layer, kind, magnitude=round(rng.uniform(0.0, 5.0), 6),
                unit_index=rng.choice((-1, 0, 1, 2)),
            )
        else:
            spec = FaultSpec(layer, kind, at_s=round(rng.uniform(0.0, 900.0), 6))
        specs.append(spec)
    return FaultPlan(name=f"prop-{rng.randrange(10**6)}", faults=tuple(specs))


def _describe(plan: FaultPlan, seed: int) -> str:
    """Canonical bytes of one compilation's determinism fingerprint."""
    doc = FaultSchedule(plan, seed).describe()
    return json.dumps(doc, sort_keys=True)


@pytest.mark.parametrize("seed", range(N_SEEDS))
class TestFaultProperties:
    def test_compilation_is_pure_in_plan_and_seed(self, seed):
        """Fresh planner objects, same (plan, seed): identical schedules."""
        plan = _random_plan(random.Random(seed))
        assert _describe(plan, seed) == _describe(plan, seed)
        # A different seed must change *something* whenever the plan has
        # any seeded randomness at all (the decision-stream heads).
        assert (
            json.loads(_describe(plan, seed))["medium_decision_head"]
            != json.loads(_describe(plan, seed + 1))["medium_decision_head"]
        )

    def test_plan_wire_round_trip_is_lossless(self, seed):
        plan = _random_plan(random.Random(seed))
        assert loads_plan(dumps_plan(plan)) == plan
        # Canonical serialisation is a fixpoint.
        assert dumps_plan(loads_plan(dumps_plan(plan))) == dumps_plan(plan)

    def test_controller_events_are_ordered_and_horizon_stable(self, seed):
        """Events come sorted, and a longer horizon only *extends* the
        schedule — the shared prefix never changes (this is what makes
        installation order and campaign duration irrelevant)."""
        plan = _random_plan(random.Random(seed))
        schedule = FaultSchedule(plan, seed)
        short = schedule.controller_events(300.0)
        long = schedule.controller_events(900.0)
        assert short == sorted(short, key=lambda e: (e.at_s, e.kind))
        assert [e for e in long if e.at_s <= 300.0] == short

    def test_medium_decision_stream_replays_exactly(self, seed):
        """Two generators from one schedule yield the same draw stream —
        the property that makes per-transmission decisions replayable."""
        plan = _random_plan(random.Random(seed))
        schedule = FaultSchedule(plan, seed)
        a, b = schedule.medium_rng(), schedule.medium_rng()
        assert [a.random() for _ in range(64)] == [b.random() for _ in range(64)]
        # Layers draw from independent sub-seeds.
        assert derive_seed(seed, "faults.medium") != derive_seed(seed, "faults.controller")

    def test_worker_tokens_round_trip(self, seed):
        plan = _random_plan(random.Random(seed))
        schedule = FaultSchedule(plan, seed)
        for index in range(4):
            token = schedule.worker_token(index)
            fault = schedule.worker_fault(index)
            if token is None:
                assert fault is None
                continue
            assert WorkerFault.from_token(token) == fault
            # Targeted specs only ever hit their own unit index.
            spec = next(s for s in schedule.worker_specs if s.unit_index in (-1, index))
            assert spec.unit_index in (-1, index)

    def test_worker_tokens_ignore_the_seed(self, seed):
        """A token depends on the plan and the unit index alone, which is
        what lets ``assign_worker_faults`` compile one schedule for units
        of any seed."""
        plan = _random_plan(random.Random(seed))
        tokens = [FaultSchedule(plan, seed).worker_token(i) for i in range(4)]
        for other in (0, seed + 1, 2**31 - 1):
            assert [FaultSchedule(plan, other).worker_token(i) for i in range(4)] == tokens
