"""Process-local campaign metrics with a seed-stable snapshot/merge API.

A :class:`MetricsCollector` accumulates four families of measurements
while a campaign runs:

* **counters** — monotonically increasing integers (frames TX/RX,
  mutations by field class and operator, bugs by dedup key, probe
  counts);
* **gauges** — floats merged by ``max`` (campaign durations);
* **histograms** — fixed-bucket integer distributions (payload lengths,
  per-unit attempt counts);
* **coverage** — the CMDCL×CMD bitmap: how often the controller's
  dispatcher processed each ``(cmdcl, cmd)`` pair it actually defines.

Instrumented code never threads a collector through constructors; it
calls the module-level helpers (:func:`inc`, :func:`observe`,
:func:`cover_keys`, ...) which write to the innermost collector activated via
``with collecting(collector):`` — and are cheap no-ops when none is
active, so library code stays usable outside campaigns.

Snapshots are frozen dataclasses of JSON-clean fields (they ride the
:mod:`repro.core.resultio` wire codec between workers) and merging is
**associative and commutative**: every summed quantity is an integer
(span durations are integer microseconds — float addition would not be
associative) and gauges merge by ``max``.  That is what makes a merged
document byte-identical for any worker count and any merge grouping
(``tests/test_obs_properties.py`` is the proof).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..errors import SpanValueError
from ..wire import layout

#: Upper bucket bounds of every histogram (values above fall in ``inf``).
HISTOGRAM_BOUNDS: Tuple[int, ...] = (1, 2, 4, 8, 16, 32)

#: Histogram bucket keys in rendering order, plus the sum/count fields.
HISTOGRAM_KEYS: Tuple[str, ...] = tuple(
    f"le_{bound}" for bound in HISTOGRAM_BOUNDS
) + ("inf", "sum", "count")

#: ``(bound, bucket key)`` per bounded bucket, in ascending order.
_BOUNDED_BUCKETS: Tuple[Tuple[int, str], ...] = tuple(zip(HISTOGRAM_BOUNDS, HISTOGRAM_KEYS))


@layout(row=True)
@dataclass(frozen=True)
class SpanStats:
    """Aggregate of every completed span sharing one name.

    Durations are integer microseconds of *simulated* time so that merge
    addition stays associative; wall-clock profiling lives only in the
    tracer's ring, never here.
    """

    count: int = 0
    sim_time_us: int = 0

    @property
    def sim_seconds(self) -> float:
        return self.sim_time_us / 1_000_000


@dataclass(frozen=True)
class MetricsSnapshot:
    """An immutable, JSON-clean view of one collector's state."""

    counters: Dict[str, int] = field(default_factory=dict)
    gauges: Dict[str, float] = field(default_factory=dict)
    histograms: Dict[str, Dict[str, int]] = field(default_factory=dict)
    coverage: Dict[str, int] = field(default_factory=dict)
    spans: Dict[str, SpanStats] = field(default_factory=dict)


# -- coverage keys -------------------------------------------------------------


def coverage_key(cmdcl: int, cmd: Optional[int] = None) -> str:
    """Canonical bitmap key: ``"25:01"`` for a pair, ``"25:-"`` class-only."""
    if cmd is None:
        return f"{cmdcl:02x}:-"
    return f"{cmdcl:02x}:{cmd:02x}"


def parse_coverage_key(key: str) -> Tuple[int, Optional[int]]:
    """Invert :func:`coverage_key`."""
    cmdcl_hex, _, cmd_hex = key.partition(":")
    return int(cmdcl_hex, 16), None if cmd_hex == "-" else int(cmd_hex, 16)


def state_coverage_key(flow: str, state: str, mark: str) -> str:
    """Session-transition bitmap key: ``"<flow>@<state>><mark>"``.

    Lives in the same coverage map as the CMDCL×CMD keys (so it merges,
    rides the wire and snapshots for free) but is structurally disjoint
    from them: hex keys never contain ``"@"``, and the scheduler's
    ``"xx:"`` prefix filter never matches a flow name.
    """
    return f"{flow}@{state}>{mark}"


def is_state_coverage_key(key: str) -> bool:
    """Whether *key* is a session-transition key, not a CMDCL×CMD one."""
    return "@" in key


def parse_state_coverage_key(key: str) -> Tuple[str, str, str]:
    """Invert :func:`state_coverage_key`."""
    flow, _, rest = key.partition("@")
    state, _, mark = rest.partition(">")
    return flow, state, mark


# -- the collector -------------------------------------------------------------


class MetricsCollector:
    """Mutable accumulator; one per campaign, never shared across processes."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._gauges: Dict[str, float] = {}
        self._histograms: Dict[str, Dict[str, int]] = {}
        self._coverage: Dict[str, int] = {}
        self._spans: Dict[str, List[int]] = {}  # name -> [count, sim_time_us]

    def inc(self, name: str, amount: int = 1) -> None:
        """Add *amount* to counter *name*."""
        self._counters[name] = self._counters.get(name, 0) + int(amount)

    def gauge_max(self, name: str, value: float) -> None:
        """Raise gauge *name* to *value* if larger (max-merge semantics)."""
        current = self._gauges.get(name)
        if current is None or value > current:
            self._gauges[name] = float(value)

    def observe(self, name: str, value: int, times: int = 1) -> None:
        """Record *times* observations of integer *value* into histogram *name*."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = dict.fromkeys(HISTOGRAM_KEYS, 0)
        for bound, bucket in _BOUNDED_BUCKETS:
            if value <= bound:
                break
        else:
            bucket = "inf"
        hist[bucket] += times
        hist["sum"] += int(value) * times
        hist["count"] += times

    def cover(self, cmdcl: int, cmd: Optional[int] = None, amount: int = 1) -> None:
        """Mark one processing of a ``(cmdcl, cmd)`` coordinate."""
        key = coverage_key(cmdcl, cmd)
        self._coverage[key] = self._coverage.get(key, 0) + int(amount)

    def cover_keys(self, keys: Iterable[str]) -> None:
        """Mark one processing of each prebuilt coverage key, in order."""
        coverage = self._coverage
        for key in keys:
            coverage[key] = coverage.get(key, 0) + 1

    def coverage_size(self) -> int:
        """How many distinct coverage coordinates the bitmap holds.

        Monotonically non-decreasing, so the coverage scheduler compares
        it across a frame's dispatch to detect novelty without copying
        the bitmap.
        """
        return len(self._coverage)

    def covered_pairs(self, cmdcl: int) -> int:
        """Distinct ``(cmdcl, cmd)`` pairs of *cmdcl* the bitmap has seen.

        Excludes the class-only ``"xx:-"`` coordinate: the scheduler's
        residual-path term counts dispatched *commands* against the
        registry's defined command count.
        """
        prefix = f"{cmdcl:02x}:"
        return sum(
            1
            for key in self._coverage
            if key.startswith(prefix) and not key.endswith(":-")
        )

    def covered_transitions(self, flow: str) -> int:
        """Distinct ``(state, mark)`` transitions of *flow* seen so far.

        The session energy loop's novelty signal, analogous to
        :meth:`covered_pairs` for the CMDCL×CMD bitmap.
        """
        prefix = f"{flow}@"
        return sum(1 for key in self._coverage if key.startswith(prefix))

    def record_span(self, name: str, sim_time_us: int) -> None:
        """Fold one completed span into the per-name aggregates.

        *sim_time_us* must already be an exact ``int`` (the tracer rounds
        before calling); anything else — float, bool, Decimal, string —
        raises :class:`~repro.errors.SpanValueError` instead of being
        silently truncated, because two callers coercing differently
        would silently break merged-snapshot byte identity.
        """
        if not isinstance(sim_time_us, int) or isinstance(sim_time_us, bool):
            raise SpanValueError(name, sim_time_us)
        entry = self._spans.get(name)
        if entry is None:
            self._spans[name] = [1, sim_time_us]
        else:
            entry[0] += 1
            entry[1] += sim_time_us

    def snapshot(self) -> MetricsSnapshot:
        """A frozen, key-sorted copy of the current state."""
        return MetricsSnapshot(
            counters={k: self._counters[k] for k in sorted(self._counters)},
            gauges={k: self._gauges[k] for k in sorted(self._gauges)},
            histograms={
                k: dict(self._histograms[k]) for k in sorted(self._histograms)
            },
            coverage={k: self._coverage[k] for k in sorted(self._coverage)},
            spans={
                k: SpanStats(count=self._spans[k][0], sim_time_us=self._spans[k][1])
                for k in sorted(self._spans)
            },
        )


# -- the active-collector stack ------------------------------------------------

_ACTIVE: List[MetricsCollector] = []


def active_collector() -> Optional[MetricsCollector]:
    """The innermost activated collector, or ``None`` outside campaigns."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def collecting(collector: MetricsCollector) -> Iterator[MetricsCollector]:
    """Route the module-level helpers to *collector* inside the block."""
    _ACTIVE.append(collector)
    try:
        yield collector
    finally:
        _ACTIVE.pop()


def inc(name: str, amount: int = 1) -> None:
    """Increment a counter on the active collector (no-op when inactive)."""
    if _ACTIVE:
        _ACTIVE[-1].inc(name, amount)


def observe(name: str, value: int) -> None:
    """Histogram observation on the active collector (no-op when inactive)."""
    if _ACTIVE:
        _ACTIVE[-1].observe(name, value)


def cover_keys(keys: Iterable[str]) -> None:
    """Prebuilt coverage keys on the active collector (no-op when inactive)."""
    if _ACTIVE:
        _ACTIVE[-1].cover_keys(keys)


# -- merging -------------------------------------------------------------------


def _merge_int_maps(left: Dict[str, int], right: Dict[str, int]) -> Dict[str, int]:
    merged = dict(left)
    for key, value in right.items():
        merged[key] = merged.get(key, 0) + value
    return {k: merged[k] for k in sorted(merged)}


def merge_snapshots(left: MetricsSnapshot, right: MetricsSnapshot) -> MetricsSnapshot:
    """Combine two snapshots; associative, and commutative per metric family.

    Counters, histograms, coverage and span aggregates add (integers, so
    grouping never matters); gauges take the maximum.
    """
    gauges = dict(left.gauges)
    for key, value in right.gauges.items():
        if key not in gauges or value > gauges[key]:
            gauges[key] = value
    histograms = {k: dict(v) for k, v in left.histograms.items()}
    for key, hist in right.histograms.items():
        if key in histograms:
            histograms[key] = _merge_int_maps(histograms[key], hist)
        else:
            histograms[key] = dict(hist)
    spans = dict(left.spans)
    for key, stats in right.spans.items():
        if key in spans:
            spans[key] = SpanStats(
                count=spans[key].count + stats.count,
                sim_time_us=spans[key].sim_time_us + stats.sim_time_us,
            )
        else:
            spans[key] = stats
    return MetricsSnapshot(
        counters=_merge_int_maps(left.counters, right.counters),
        gauges={k: gauges[k] for k in sorted(gauges)},
        histograms={k: histograms[k] for k in sorted(histograms)},
        coverage=_merge_int_maps(left.coverage, right.coverage),
        spans={k: spans[k] for k in sorted(spans)},
    )


def merge_all(snapshots: Iterable[MetricsSnapshot]) -> MetricsSnapshot:
    """Left-fold :func:`merge_snapshots` from the empty snapshot."""
    merged = MetricsSnapshot()
    for snapshot in snapshots:
        merged = merge_snapshots(merged, snapshot)
    return merged


# -- derived quantities --------------------------------------------------------


def frames_per_bug(snapshot: MetricsSnapshot) -> Optional[float]:
    """Fuzzing frames sent per unique verified bug, or ``None`` without bugs.

    The single shared definition behind every efficiency figure — both
    :mod:`repro.analysis.summary` and :mod:`repro.analysis.report` read
    this, so the two renderings can never disagree.
    """
    bugs = snapshot.counters.get("bugs.unique", 0)
    if bugs <= 0:
        return None
    return snapshot.counters.get("fuzzer.frames_tx", 0) / bugs


def format_frames_per_bug(snapshot: MetricsSnapshot) -> str:
    """Canonical rendering of :func:`frames_per_bug` (``"n/a"`` without bugs)."""
    value = frames_per_bug(snapshot)
    return "n/a" if value is None else f"{value:.1f}"


# -- harness (executor) metrics ------------------------------------------------


def harness_snapshot(
    units: int,
    attempts: Sequence[int],
    failure_categories: Sequence[str],
) -> MetricsSnapshot:
    """Executor-side metrics: unit counts, per-unit retries, failures.

    Built by :func:`repro.core.trials.merge_trials` from the
    :class:`~repro.core.parallel.UnitOutcome` records every worker count
    shares, so a parallel run merges to the same bytes as a serial one.
    """
    collector = MetricsCollector()
    collector.inc("parallel.units", units)
    collector.inc("parallel.unit_attempts", sum(attempts))
    collector.inc("parallel.unit_retries", sum(max(0, a - 1) for a in attempts))
    collector.inc("parallel.unit_failures", len(failure_categories))
    for attempt_count in attempts:
        collector.observe("parallel.attempts_per_unit", attempt_count)
    for category in failure_categories:
        collector.inc(f"parallel.failures.{category}")
    return collector.snapshot()
