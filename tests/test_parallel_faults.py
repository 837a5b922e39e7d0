"""Worker-crash handling in the parallel executor.

A campaign unit whose worker raises or dies must be retried once
and then surfaced as a *structured* failure in the merged summary — never
an unhandled exception, and never at the cost of the other shards'
results.
"""

from dataclasses import replace

import pytest

from repro.core import parallel
from repro.core.baseline import compare_units
from repro.core.campaign import Mode, ablation_units
from repro.core.parallel import (
    FAILURE_CRASH,
    FAILURE_EXCEPTION,
    CampaignUnit,
    UnitFailure,
    execute_units,
    parallel_supported,
    resolve_workers,
)
from repro.core.trials import merge_trials
from repro.core.trials import trial_units
from repro.faults.plan import FaultPlan, FaultSpec

DURATION = 600.0  # 10 simulated minutes keeps each shard ~0.5 s wall


def good_units(n=2):
    return trial_units("D1", Mode.FULL, n, DURATION, 0)


def faulty(fault, seed=9999):
    return CampaignUnit(device="D1", mode=Mode.FULL, duration=DURATION,
                        seed=seed, fault=fault)


@pytest.fixture(scope="module")
def reference():
    """What the healthy shards must still produce, faults notwithstanding."""
    outcomes = execute_units(good_units(), workers=1)
    return [o.result for o in outcomes]


class TestWorkerRaise:
    def test_retried_once_then_structured_failure(self, reference):
        outcomes = execute_units(good_units() + [faulty("raise")], workers=3)
        bad = outcomes[-1]
        assert bad.result is None
        assert bad.attempts == 2  # first try + one retry
        assert isinstance(bad.failure, UnitFailure)
        assert bad.failure.category == FAILURE_EXCEPTION
        assert "injected fault" in bad.failure.error
        # The healthy shards' results are intact and identical to serial.
        assert [o.result for o in outcomes[:2]] == reference

    def test_merged_summary_keeps_survivors(self, reference):
        outcomes = execute_units(good_units() + [faulty("raise")], workers=3)
        summary = merge_trials("D1", Mode.FULL, DURATION, outcomes)
        assert summary.n_trials == 2
        assert summary.trials == reference
        assert len(summary.failures) == 1
        assert summary.failures[0].category == FAILURE_EXCEPTION
        rendered = summary.render()
        assert "FAILED zcover:D1:FULL:seed=9999" in rendered
        assert "2 attempt(s)" in rendered

    def test_transient_fault_recovers_on_retry(self, tmp_path, reference):
        # The marker file makes the first attempt raise and the retry
        # succeed — the unit must come back with a result, not a failure.
        marker = tmp_path / "fault-fired"
        flaky = CampaignUnit(device="D1", mode=Mode.FULL, duration=DURATION,
                             seed=0, fault=f"raise-once:{marker}")
        outcomes = execute_units([flaky, good_units()[1]], workers=2)
        assert marker.exists()
        assert outcomes[0].failure is None
        assert outcomes[0].attempts == 2
        assert outcomes[0].result == reference[0]
        assert outcomes[1].result == reference[1]


@pytest.mark.skipif(not parallel_supported(), reason="no process pool here")
class TestWorkerDeath:
    def test_dead_worker_is_contained(self, reference):
        # os._exit in the worker breaks the whole pool; innocent shards
        # caught in the breakage must be retried, the culprit surfaced.
        outcomes = execute_units(good_units() + [faulty("exit")], workers=3)
        bad = outcomes[-1]
        assert bad.result is None
        assert bad.failure is not None
        assert bad.failure.category == FAILURE_CRASH
        assert [o.result for o in outcomes[:2]] == reference

    def test_serial_fallback_never_forks(self, reference):
        # workers=1 must not even create a pool — an "exit" fault there
        # would kill the test process itself, so only assert the healthy
        # path produces identical results in-process.
        outcomes = execute_units(good_units(), workers=1)
        assert [o.result for o in outcomes] == reference


class TestWorkerResolution:
    def test_zero_means_per_core(self):
        import os

        assert resolve_workers(0) == (os.cpu_count() or 1)
        assert resolve_workers(None) == (os.cpu_count() or 1)

    def test_explicit_counts_are_honoured(self):
        assert resolve_workers(4) == 4
        assert resolve_workers(1) == 1

    @pytest.mark.skipif(not parallel_supported(), reason="no process pool here")
    @pytest.mark.parametrize("workers", [0, -1])
    def test_executor_reads_zero_or_less_as_per_core(self, monkeypatch, reference, workers):
        sizes = []

        class RecordingPool(parallel.WorkerPool):
            def __init__(self, workers=1):
                sizes.append(workers)
                super().__init__(workers)

        monkeypatch.setattr(parallel.os, "cpu_count", lambda: 2)
        monkeypatch.setattr(parallel, "WorkerPool", RecordingPool)
        outcomes = execute_units(good_units(), workers=workers)
        assert sizes == [2]
        assert [o.result for o in outcomes] == reference


#: Builders of the three unit lists a fault plan reaches, four units each.
UNIT_LISTS = {
    "trials": lambda plan: trial_units("D1", Mode.FULL, 4, DURATION, 0, fault_plan=plan),
    "ablation": lambda plan: ablation_units(
        "D1", DURATION, 0, fault_plan=plan, scheduler="coverage"
    ),
    "compare": lambda plan: compare_units(("D1", "D2"), DURATION, 0, fault_plan=plan),
}


def _worker_plan(unit_index):
    return FaultPlan(
        name="worker", faults=(FaultSpec("worker", "raise", unit_index=unit_index),)
    )


class TestWorkerFaultAssignment:
    """A worker fault targets a unit by its position in the job's unit
    list, whatever kind of job or unit it is."""

    @pytest.mark.parametrize("index", range(4))
    @pytest.mark.parametrize("job", sorted(UNIT_LISTS))
    def test_token_lands_on_the_indexed_unit_only(self, job, index):
        units = UNIT_LISTS[job](_worker_plan(index))
        assert [u.fault for u in units] == [
            "raise" if i == index else None for i in range(4)
        ]
        # The token is all the worker layer changes about a unit.
        plain = UNIT_LISTS[job](None)
        assert [replace(u, fault=None, fault_plan_json=None) for u in units] == plain

    @pytest.mark.parametrize("job", sorted(UNIT_LISTS))
    def test_untargeted_fault_hits_every_unit(self, job):
        units = UNIT_LISTS[job](_worker_plan(-1))
        assert [u.fault for u in units] == ["raise"] * 4

    def test_no_plan_leaves_units_untouched(self):
        units = good_units(3)
        assert parallel.assign_worker_faults(units, None) is units
