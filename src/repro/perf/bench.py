"""The microbenchmark harness: time workloads, compare against a baseline.

:func:`run_bench` executes the registered workloads (see
:mod:`repro.perf.workloads`), timing each thunk with the sanctioned
wall-clock reader :func:`repro.radio.clock.wall_perf_counter_ns` and
verifying that every repetition reproduces the same deterministic
checksum.  Workload counters recorded through :mod:`repro.obs` during the
runs ride along in the emitted document.

:func:`compare` implements the regression gate: per-workload cost is
normalised by the calibration loop's cost on the *same* host, so the
committed baseline transfers between machines — a ratio moves only when
the code's relative cost moves.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from ..errors import ReproError
from ..obs.metrics import MetricsCollector, MetricsSnapshot, collecting
from ..radio.clock import wall_perf_counter_ns
from .workloads import CALIBRATION, WORKLOADS, WorkloadRun

if TYPE_CHECKING:  # document.py imports this module
    from .document import BenchDocument


class PerfError(ReproError, ValueError):
    """A bench request or document is malformed."""


@dataclass(frozen=True)
class BenchTiming:
    """Measured cost of one workload."""

    name: str
    ops: int
    reps: int
    best_ns: int
    mean_ns: int
    checksum: int

    @property
    def ns_per_op(self) -> float:
        return self.best_ns / self.ops if self.ops else float(self.best_ns)

    @property
    def ops_per_sec(self) -> float:
        return self.ops / (self.best_ns / 1e9) if self.best_ns else 0.0


@dataclass(frozen=True)
class BenchReport:
    """One harness run: timings plus the observability side-channel."""

    timings: Tuple[BenchTiming, ...]
    snapshot: MetricsSnapshot
    fast: bool
    repeats: int

    def timing(self, name: str) -> Optional[BenchTiming]:
        for entry in self.timings:
            if entry.name == name:
                return entry
        return None

    def ratios(self) -> Dict[str, float]:
        """Per-op cost of each workload in calibration-loop units."""
        calibration = self.timing(CALIBRATION)
        if calibration is None or calibration.ns_per_op <= 0.0:
            raise PerfError("bench report lacks a usable calibration timing")
        unit = calibration.ns_per_op
        return {t.name: t.ns_per_op / unit for t in self.timings}


def resolve_workloads(names: Optional[Sequence[str]]) -> List[str]:
    """Validate a workload subset, always including the calibration loop."""
    if not names:
        return list(WORKLOADS)
    unknown = sorted(set(names) - set(WORKLOADS))
    if unknown:
        known = ", ".join(WORKLOADS)
        raise PerfError(f"unknown workload(s) {unknown}; known: {known}")
    ordered = [name for name in WORKLOADS if name in set(names)]
    if CALIBRATION not in ordered:
        ordered.insert(0, CALIBRATION)
    return ordered


def run_bench(
    names: Optional[Sequence[str]] = None,
    fast: bool = False,
    repeats: int = 3,
) -> BenchReport:
    """Time each selected workload *repeats* times; best-of wins.

    Every repetition must reproduce the workload's seeded checksum —
    a mismatch means a hot path has become nondeterministic, which is a
    harder failure than any slowdown.
    """
    if repeats < 1:
        raise PerfError("repeats must be >= 1")
    selected = resolve_workloads(names)
    collector = MetricsCollector()
    timings: List[BenchTiming] = []
    with collecting(collector):
        for name in selected:
            thunk = WORKLOADS[name](fast)
            elapsed: List[int] = []
            reference: Optional[WorkloadRun] = None
            for _ in range(repeats):
                start = wall_perf_counter_ns()
                run = thunk()
                elapsed.append(wall_perf_counter_ns() - start)
                if reference is None:
                    reference = run
                elif run.checksum != reference.checksum or run.ops != reference.ops:
                    raise PerfError(
                        f"workload {name!r} is nondeterministic: "
                        f"(ops={run.ops}, crc={run.checksum:#010x}) != "
                        f"(ops={reference.ops}, crc={reference.checksum:#010x})"
                    )
            timings.append(
                BenchTiming(
                    name=name,
                    ops=reference.ops,
                    reps=repeats,
                    best_ns=min(elapsed),
                    mean_ns=sum(elapsed) // len(elapsed),
                    checksum=reference.checksum,
                )
            )
    return BenchReport(
        timings=tuple(timings),
        snapshot=collector.snapshot(),
        fast=fast,
        repeats=repeats,
    )


# -- the regression gate --------------------------------------------------------


@dataclass(frozen=True)
class Regression:
    """One workload that failed the baseline comparison."""

    name: str
    kind: str  # "slowdown" | "checksum" | "ops"
    detail: str


def compare(
    current: BenchDocument, baseline: BenchDocument, tolerance: float = 0.25,
    only: Optional[Sequence[str]] = None,
) -> List[Regression]:
    """Diff a current perf document against a committed baseline.

    Both are decoded documents (:func:`repro.perf.document.validate_document`
    or :func:`~repro.perf.document.load_document`).  Returns the
    regressions: workloads whose calibration-normalised cost grew by more
    than *tolerance* (fractional, e.g. 0.25 = +25%), plus any checksum or
    op-count drift — those mean the deterministic workload itself changed,
    so the timing comparison is void and the baseline needs a deliberate
    regeneration.

    *only* restricts the gate to those baseline workloads: a run that
    benchmarked a subset (``zcover perf --workloads campaign_fps``) can be
    compared against the full committed baseline without every un-run
    workload counting as "missing".  A full comparison (``only=None``)
    still treats a baseline workload absent from the current run as a
    regression.
    """
    cur_fast, base_fast = current.meta.get("fast"), baseline.meta.get("fast")
    if cur_fast != base_fast:
        return [
            Regression(
                name="*",
                kind="ops",
                detail=f"mode mismatch: current fast={cur_fast} vs baseline fast={base_fast}",
            )
        ]
    regressions: List[Regression] = []
    for name, base in baseline.results.items():
        if name == CALIBRATION:
            continue
        if only is not None and name not in only:
            continue
        entry = current.results.get(name)
        if entry is None:
            regressions.append(
                Regression(name, "ops", "workload missing from current run")
            )
            continue
        if entry.checksum != base.checksum or entry.ops != base.ops:
            regressions.append(
                Regression(
                    name,
                    "checksum",
                    f"workload output drifted: ops {base.ops}→{entry.ops}, "
                    f"crc {base.checksum:#010x}→{entry.checksum:#010x}",
                )
            )
            continue
        base_ratio = base.ratio_to_calibration
        cur_ratio = entry.ratio_to_calibration
        if base_ratio <= 0.0:
            continue
        growth = cur_ratio / base_ratio - 1.0
        if growth > tolerance:
            regressions.append(
                Regression(
                    name,
                    "slowdown",
                    f"normalised cost {base_ratio:.2f}→{cur_ratio:.2f} "
                    f"(+{growth * 100.0:.1f}% > {tolerance * 100.0:.0f}% tolerance)",
                )
            )
    return regressions
