"""Property suite for the session fuzzer's determinism contract.

~500 seeded cases over the five properties ISSUE 8 names:

* **schedule purity** — a :class:`SessionSchedule` is a pure function of
  ``(flow, plan, seed)``: two independent compilations describe and draw
  identically;
* **horizon-prefix stability** — trial *t* is the same whether compiled
  alone or as part of any longer horizon;
* **wire round-trip fixpoint** — ``session_from_wire(session_to_wire(r))
  == r`` and re-encoding is byte-stable;
* **serial vs workers byte-identity** — ``run_sessions(workers=2)``
  produces the same wire bytes as ``workers=1``;
* **state-coverage merge commutativity** — snapshots carrying the
  ``flow@state>mark`` bitmap merge the same in any order/grouping.
"""

import random

import pytest

from repro.core.resultio import session_from_wire, session_to_wire
from repro.core.session import (
    FLOWS,
    SessionPlan,
    SessionSchedule,
    apply_ops,
    evaluate_trace,
    merge_session_results,
    run_session_flow,
    run_sessions,
    session_plan_with_trials,
)
from repro.obs.metrics import (
    MetricsCollector,
    merge_all,
    merge_snapshots,
    state_coverage_key,
)
from repro.wire import dumps_wire

#: Small plan keeping the ~300 engine runs of this suite fast.
FAST_PLAN = SessionPlan(name="fast", trials=8, batch_trials=3)

SEEDS_20 = range(20)
SEEDS_15 = range(15)
SEEDS_8 = range(8)


def _plan_for(seed: int) -> SessionPlan:
    """A seed-varied plan so purity is tested across plan shapes too."""
    if seed % 3 == 0:
        return FAST_PLAN
    if seed % 3 == 1:
        return SessionPlan(name="narrow", trials=6, min_ops=2, max_ops=4)
    return SessionPlan(
        name="heavy",
        trials=6,
        weights=(("replay", 4), ("mutate", 4), ("drop", 1)),
        exploit_boost=2,
    )


# -- schedule compile purity ---------------------------------------------------


class TestSchedulePurity:
    @pytest.mark.parametrize("flow", FLOWS)
    @pytest.mark.parametrize("seed", SEEDS_20)
    def test_two_compilations_describe_identically(self, flow, seed):
        plan = _plan_for(seed)
        first = SessionSchedule(flow, plan, seed).describe(trials=10)
        second = SessionSchedule(flow, plan, seed).describe(trials=10)
        assert first == second

    @pytest.mark.parametrize("seed", SEEDS_8)
    def test_different_flows_draw_differently(self, seed):
        """The flow name is mixed into every trial label: random trials of
        two flows must not be clones of each other."""
        a = SessionSchedule("s0", FAST_PLAN, seed)
        b = SessionSchedule("ota", FAST_PLAN, seed)
        probe_a, probe_b = len(a.corpus), len(b.corpus)
        assert a.trial_ops(probe_a + 1) != b.trial_ops(probe_b + 1)


# -- horizon-prefix stability --------------------------------------------------


class TestHorizonPrefixStability:
    @pytest.mark.parametrize("flow", FLOWS)
    @pytest.mark.parametrize("seed", SEEDS_15)
    def test_trial_ops_independent_of_horizon(self, flow, seed):
        schedule = SessionSchedule(flow, FAST_PLAN, seed)
        short = [schedule.trial_ops(t) for t in range(6)]
        fresh = SessionSchedule(flow, FAST_PLAN, seed)
        long = [fresh.trial_ops(t) for t in range(12)]
        assert long[:6] == short

    @pytest.mark.parametrize("flow", FLOWS)
    def test_probe_corpus_prefixes_the_schedule(self, flow):
        schedule = SessionSchedule(flow, FAST_PLAN, seed=3)
        for t, (vuln_id, ops) in enumerate(schedule.corpus):
            assert schedule.trial_ops(t) == ops
            assert schedule.trial_label(t) == f"directed:{vuln_id}"
        assert schedule.trial_label(len(schedule.corpus)) is None


# -- mutation + evaluation are pure --------------------------------------------


class TestTraceDeterminism:
    @pytest.mark.parametrize("flow", FLOWS)
    @pytest.mark.parametrize("seed", SEEDS_20)
    def test_apply_and_evaluate_twice_identical(self, flow, seed):
        schedule = SessionSchedule(flow, FAST_PLAN, seed)
        for t in range(4):
            ops = schedule.trial_ops(t)
            events = apply_ops(flow, ops)
            assert events == apply_ops(flow, ops)
            first = evaluate_trace(flow, events)
            second = evaluate_trace(flow, events)
            assert first == second

    @pytest.mark.parametrize("flow", FLOWS)
    @pytest.mark.parametrize("seed", range(10))
    def test_flow_results_are_reproducible(self, flow, seed):
        first = run_session_flow("D1", flow, seed=seed, plan=FAST_PLAN)
        second = run_session_flow("D1", flow, seed=seed, plan=FAST_PLAN)
        assert first == second
        assert dumps_wire(session_to_wire(first)) == dumps_wire(
            session_to_wire(second)
        )


# -- wire round-trip fixpoint --------------------------------------------------


class TestWireRoundTrip:
    @pytest.mark.parametrize("flow", FLOWS)
    @pytest.mark.parametrize("seed", SEEDS_8)
    def test_flow_result_round_trips_lossless(self, flow, seed):
        result = run_session_flow("D2", flow, seed=seed, plan=FAST_PLAN)
        wire = session_to_wire(result)
        restored = session_from_wire(wire)
        assert restored == result
        assert dumps_wire(session_to_wire(restored)) == dumps_wire(wire)

    @pytest.mark.parametrize("seed", range(10))
    def test_merged_result_round_trips_lossless(self, seed):
        result = run_sessions("D1", seed=seed, plan=FAST_PLAN)
        restored = session_from_wire(session_to_wire(result))
        assert restored == result

    def test_stale_wire_version_rejected(self):
        from repro.wire import WIRE_VERSION, WireError

        wire = session_to_wire(run_session_flow("D1", "s0", seed=0, plan=FAST_PLAN))
        wire["wire_version"] = WIRE_VERSION + 1
        with pytest.raises(WireError):
            session_from_wire(wire)


# -- serial vs workers byte-identity -------------------------------------------


class TestSerialVsWorkers:
    def test_workers_2_bytes_match_serial(self):
        plan = session_plan_with_trials(6)
        serial = run_sessions("D1", seed=0, plan=plan, workers=1)
        pooled = run_sessions("D1", seed=0, plan=plan, workers=2)
        assert dumps_wire(session_to_wire(serial)) == dumps_wire(
            session_to_wire(pooled)
        )

    def test_flow_subset_preserves_canonical_order(self):
        result = run_sessions("D1", flows=("ota", "s0"), seed=1, plan=FAST_PLAN)
        assert result.flows == ("ota", "s0")
        assert set(result.trials_by_flow) == {"ota", "s0"}


# -- state-coverage merge commutativity ----------------------------------------


def _state_snapshot(seed: int):
    """A snapshot whose coverage mixes CMDCL×CMD and flow@state keys."""
    rng = random.Random(seed)
    collector = MetricsCollector()
    for _ in range(rng.randrange(1, 12)):
        flow = rng.choice(FLOWS)
        collector.cover_keys([state_coverage_key(flow, f"s{rng.randrange(4)}", f"m{rng.randrange(4)}")])
    for _ in range(rng.randrange(0, 6)):
        collector.cover(rng.randrange(256), rng.randrange(256))
    return collector.snapshot()


class TestStateCoverageMerge:
    @pytest.mark.parametrize("seed", range(30))
    def test_merge_is_commutative(self, seed):
        left = _state_snapshot(seed * 2 + 1)
        right = _state_snapshot(seed * 2 + 2)
        assert merge_snapshots(left, right) == merge_snapshots(right, left)

    @pytest.mark.parametrize("seed", range(12))
    def test_merge_grouping_never_matters(self, seed):
        parts = [_state_snapshot(seed * 10 + i) for i in range(4)]
        fold_left = merge_all(parts)
        pairwise = merge_snapshots(
            merge_snapshots(parts[0], parts[1]), merge_snapshots(parts[2], parts[3])
        )
        assert fold_left == pairwise

    @pytest.mark.parametrize("seed", range(12))
    def test_session_metrics_merge_matches_engine_merge(self, seed):
        """Per-flow metrics merged by merge_session_results equal a direct
        snapshot fold, in the canonical flow order."""
        results = [
            run_session_flow("D1", flow, seed=seed, plan=FAST_PLAN)
            for flow in FLOWS[:3]
        ]
        merged = merge_session_results(results)
        assert merged.metrics == merge_all(r.metrics for r in results)

    def test_state_keys_are_disjoint_from_hex_keys(self):
        from repro.obs.metrics import is_state_coverage_key, parse_state_coverage_key

        key = state_coverage_key("ota", "pulling", "transferring")
        assert is_state_coverage_key(key)
        assert parse_state_coverage_key(key) == ("ota", "pulling", "transferring")
        assert not is_state_coverage_key("7a:06")


# -- plan wire -----------------------------------------------------------------


class TestPlanWire:
    @pytest.mark.parametrize("seed", range(9))
    def test_plan_round_trips(self, seed):
        from repro.core.session import dumps_session_plan, loads_session_plan

        plan = _plan_for(seed)
        assert loads_session_plan(dumps_session_plan(plan)) == plan

    def test_invalid_plans_rejected(self):
        from repro.errors import CampaignError

        with pytest.raises(CampaignError):
            SessionPlan(trials=0).validate()
        with pytest.raises(CampaignError):
            SessionPlan(min_ops=3, max_ops=1).validate()
        with pytest.raises(CampaignError):
            SessionPlan(weights=(("warp", 1),)).validate()
