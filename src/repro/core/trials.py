"""Multi-trial orchestration and aggregation.

"Following recommended fuzzing practices, we conducted five 24-hour
fuzzing trials for each controller" (Section IV, experiment environment).
This module runs the repeated trials with distinct seeds and aggregates
the statistics a fuzzing evaluation reports: unique-finding counts per
trial, the union/intersection of findings, and per-bug discovery-time
means and spreads.

Trials are independent, so ``run_trials(workers=N)`` shards them across a
process pool (:mod:`repro.core.parallel`); the merge step reassembles the
results in seed order, making the parallel output identical to a serial
run.  A shard that keeps crashing surfaces in ``TrialSummary.failures``
instead of discarding the surviving trials.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from ..obs.metrics import MetricsSnapshot, harness_snapshot, merge_all, merge_snapshots
from .campaign import CampaignResult, DAY, Mode


@dataclass(frozen=True)
class BugTimingStats:
    """Discovery-time statistics for one bug across trials."""

    bug_id: int
    hits: int  # trials in which the bug was found
    mean_time: float
    stdev_time: float
    mean_packets: float


@dataclass
class TrialSummary:
    """Aggregated outcome of repeated fuzzing trials."""

    device: str
    mode: Mode
    duration: float
    trials: List[CampaignResult] = field(default_factory=list)
    #: Structured records of shards that never produced a result
    #: (:class:`repro.core.parallel.UnitFailure`); empty on a clean run.
    failures: List[object] = field(default_factory=list)
    #: Executor-side metrics (unit counts, retries, failure categories),
    #: built by :func:`merge_trials`.
    harness_metrics: Optional[MetricsSnapshot] = None

    @property
    def n_trials(self) -> int:
        return len(self.trials)

    @property
    def unique_counts(self) -> Tuple[int, ...]:
        return tuple(t.unique_vulnerabilities for t in self.trials)

    @property
    def mean_unique(self) -> float:
        return statistics.fmean(self.unique_counts) if self.trials else 0.0

    @property
    def union_bug_ids(self) -> Tuple[int, ...]:
        """Bugs found in at least one trial."""
        found = set()
        for trial in self.trials:
            found |= set(trial.matched_bug_ids)
        return tuple(sorted(found))

    @property
    def intersection_bug_ids(self) -> Tuple[int, ...]:
        """Bugs found in every trial (the reliably-reproducible core)."""
        if not self.trials:
            return ()
        common = set(self.trials[0].matched_bug_ids)
        for trial in self.trials[1:]:
            common &= set(trial.matched_bug_ids)
        return tuple(sorted(common))

    def timing_stats(self) -> List[BugTimingStats]:
        """Per-bug discovery-time statistics across the trials."""
        times: Dict[int, List[Tuple[float, int]]] = {}
        for trial in self.trials:
            for unique in trial.unique.values():
                if unique.bug_id is None:
                    continue
                times.setdefault(unique.bug_id, []).append(
                    (unique.first_detection_time, unique.first_detection_packet)
                )
        stats: List[BugTimingStats] = []
        for bug_id in sorted(times):
            samples = times[bug_id]
            t_values = [t for t, _ in samples]
            p_values = [p for _, p in samples]
            stats.append(
                BugTimingStats(
                    bug_id=bug_id,
                    hits=len(samples),
                    mean_time=statistics.fmean(t_values),
                    stdev_time=statistics.stdev(t_values) if len(t_values) > 1 else 0.0,
                    mean_packets=statistics.fmean(p_values),
                )
            )
        return stats

    def merged_metrics(self) -> MetricsSnapshot:
        """Every trial's snapshot plus the harness snapshot, merged."""
        merged = merge_all(
            trial.metrics for trial in self.trials if trial.metrics is not None
        )
        if self.harness_metrics is not None:
            merged = merge_snapshots(merged, self.harness_metrics)
        return merged

    def metrics_document(self) -> dict:
        """The schema-v1 ``--metrics-out`` document for this summary."""
        from ..obs.export import snapshot_to_document

        return snapshot_to_document(
            self.merged_metrics(),
            meta={
                "kind": "trials",
                "device": self.device,
                "mode": self.mode.name,
                "duration_s": self.duration,
                "trials": self.n_trials,
                "failures": len(self.failures),
            },
        )

    def failure_rows(self) -> List[dict]:
        """One ``{label, category, attempts}`` row per failed shard (the
        result and chaos documents list these)."""
        return [
            {"label": f.unit.label(), "category": f.category, "attempts": f.attempts}
            for f in self.failures
        ]

    def render(self) -> str:
        """Human-readable summary table."""
        lines = [
            f"{self.n_trials} x {self.duration / 3600:.0f}h trials of "
            f"{self.mode.value} on {self.device}",
            f"unique findings per trial: {list(self.unique_counts)} "
            f"(mean {self.mean_unique:.1f})",
            f"found in every trial : {list(self.intersection_bug_ids)}",
            f"found in any trial   : {list(self.union_bug_ids)}",
            "",
            "bug   hits  mean t(s)  stdev(s)  mean packets",
        ]
        for s in self.timing_stats():
            lines.append(
                f"#{s.bug_id:02d}   {s.hits}/{self.n_trials}   "
                f"{s.mean_time:8.1f}  {s.stdev_time:8.1f}  {s.mean_packets:10.0f}"
            )
        for failure in self.failures:
            lines.append(failure.render())
        return "\n".join(lines)


#: Seed spacing between trials of one summary (trial *i* runs with
#: ``base_seed + SEED_STRIDE * i``), kept well clear of the per-phase
#: seed-derivation XORs inside a campaign.
SEED_STRIDE = 1000


def trial_units(
    device: str,
    mode: Mode,
    n_trials: int,
    duration: float,
    base_seed: int,
    fault_plan: "Optional[FaultPlan]" = None,
    scheduler: str = "static",
) -> "List[CampaignUnit]":
    """The campaign units of one trial series, in canonical seed order.

    With *fault_plan*, every unit carries the serialised plan (the worker
    compiles it against its own seed) plus its worker-layer fault token,
    which targets the unit by its trial index.
    """
    from ..faults.plan import dumps_plan
    from .parallel import CampaignUnit, assign_worker_faults

    plan_json = None if fault_plan is None else dumps_plan(fault_plan)
    units = [
        CampaignUnit(
            device=device,
            mode=mode,
            duration=duration,
            seed=base_seed + SEED_STRIDE * trial_index,
            fault_plan_json=plan_json,
            scheduler=scheduler,
        )
        for trial_index in range(n_trials)
    ]
    return assign_worker_faults(units, fault_plan)


def merge_trials(
    device: str,
    mode: Mode,
    duration: float,
    outcomes: List[Any],
) -> TrialSummary:
    """Reassemble executor outcomes into a :class:`TrialSummary`.

    *outcomes* are :class:`repro.core.parallel.UnitOutcome` records in
    canonical seed order, which the executor guarantees whatever the
    worker scheduling, so aggregate statistics, bug-ID
    unions/intersections and the rendered report are byte-identical at
    every worker count.  Failed shards become structured entries in
    ``summary.failures`` without disturbing the surviving trials.

    The summary also carries a harness metrics snapshot (unit counts,
    per-unit attempts, failure categories), keeping merged
    ``--metrics-out`` documents byte-identical across worker counts.
    """
    return TrialSummary(
        device=device,
        mode=mode,
        duration=duration,
        trials=[o.result for o in outcomes if o.result is not None],
        failures=[o.failure for o in outcomes if o.result is None and o.failure is not None],
        harness_metrics=harness_snapshot(
            units=len(outcomes),
            attempts=[outcome.attempts for outcome in outcomes],
            failure_categories=[
                outcome.failure.category
                for outcome in outcomes
                if outcome.failure is not None
            ],
        ),
    )


def run_trials(
    device: str = "D1",
    mode: Mode = Mode.FULL,
    n_trials: int = 5,
    duration: float = DAY,
    base_seed: int = 0,
    workers: int = 1,
    fault_plan: "Optional[FaultPlan]" = None,
    scheduler: str = "static",
) -> TrialSummary:
    """Run *n_trials* independent campaigns with distinct seeds.

    ``workers > 1`` shards the trials across a process pool; the result is
    identical to the serial run (``tests/test_parallel_determinism.py``).
    Every worker count runs the same unit executor, so worker-layer
    faults and retry accounting apply identically everywhere.

    With *fault_plan* every trial runs under the plan's deterministic
    fault injection (:mod:`repro.faults`).
    """
    from .parallel import execute_units

    units = trial_units(
        device, mode, n_trials, duration, base_seed, fault_plan, scheduler
    )
    outcomes = execute_units(units, workers=workers)
    return merge_trials(device, mode, duration, outcomes)
