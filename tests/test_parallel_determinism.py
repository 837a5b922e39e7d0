"""Serial vs parallel campaign execution must be indistinguishable.

The tentpole correctness proof: ``run_trials(workers=N)`` shards trials
across worker processes and ships results back in the
:mod:`repro.core.resultio` wire form, while ``workers=1`` is the
historical in-process loop calling :func:`run_campaign` directly.  Every
observable — bug IDs, discovery times, coverage, the rendered report —
must agree bit for bit, or parallelism has changed the science.
"""

import pytest

from repro.analysis.summary import campaign_report
from repro.core.campaign import Mode, run_ablation, run_campaign
from repro.core.resultio import campaign_to_wire
from repro.core.trials import run_trials
from repro.obs.export import dumps_document
from repro.wire import dumps_wire

N_TRIALS = 3
DURATION = 900.0  # 15 simulated minutes: all the early bugs, fast test


@pytest.fixture(scope="module")
def serial():
    return run_trials("D1", Mode.FULL, n_trials=N_TRIALS, duration=DURATION,
                      base_seed=0, workers=1)


@pytest.fixture(scope="module")
def parallel():
    return run_trials("D1", Mode.FULL, n_trials=N_TRIALS, duration=DURATION,
                      base_seed=0, workers=4)


class TestTrialDeterminism:
    def test_no_failures(self, parallel):
        assert parallel.failures == []
        assert parallel.n_trials == N_TRIALS

    def test_union_and_intersection_bug_ids(self, serial, parallel):
        assert serial.union_bug_ids == parallel.union_bug_ids
        assert serial.intersection_bug_ids == parallel.intersection_bug_ids

    def test_discovery_times(self, serial, parallel):
        for left, right in zip(serial.trials, parallel.trials):
            assert left.discovery_timeline() == right.discovery_timeline()

    def test_timing_stats(self, serial, parallel):
        assert serial.timing_stats() == parallel.timing_stats()

    def test_full_result_equality(self, serial, parallel):
        # Whole-object equality: properties, fuzz results (bug log,
        # detections, timeline, coverage sets) and verified uniques.
        assert serial.trials == parallel.trials

    def test_wire_form_is_byte_identical(self, serial, parallel):
        for left, right in zip(serial.trials, parallel.trials):
            assert dumps_wire(campaign_to_wire(left)) == dumps_wire(
                campaign_to_wire(right)
            )

    def test_rendered_summary_identical(self, serial, parallel):
        assert serial.render() == parallel.render()

    def test_rendered_campaign_reports_identical(self, serial, parallel):
        for left, right in zip(serial.trials, parallel.trials):
            assert campaign_report(left) == campaign_report(right)

    def test_trial_order_is_seed_order(self, parallel):
        # The merge reassembles canonical seed order regardless of which
        # worker finished first: trial i must equal a direct run of seed
        # 1000*i.
        direct = run_campaign("D1", Mode.FULL, duration=DURATION, seed=1000)
        assert parallel.trials[1] == direct


class TestMetricsDeterminism:
    """The obs snapshots must survive the wire without changing a byte."""

    def test_every_trial_carries_metrics(self, parallel):
        for trial in parallel.trials:
            assert trial.metrics is not None
            assert trial.metrics.counters["fuzzer.frames_tx"] > 0

    def test_per_trial_metrics_equal(self, serial, parallel):
        for left, right in zip(serial.trials, parallel.trials):
            assert left.metrics == right.metrics

    def test_harness_metrics_equal(self, serial, parallel):
        assert serial.harness_metrics == parallel.harness_metrics
        assert serial.harness_metrics.counters["parallel.units"] == N_TRIALS

    def test_merged_document_is_byte_identical(self, serial, parallel):
        left = dumps_document(serial.metrics_document())
        right = dumps_document(parallel.metrics_document())
        assert left == right


class TestAblationDeterminism:
    def test_parallel_ablation_matches_serial(self):
        serial = run_ablation("D1", duration=DURATION, seed=0, workers=1)
        parallel = run_ablation("D1", duration=DURATION, seed=0, workers=3)
        assert list(serial) == list(parallel)
        for mode in serial:
            assert serial[mode] == parallel[mode]
