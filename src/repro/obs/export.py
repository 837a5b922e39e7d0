"""Metrics exports: JSON document (schema v1), text table, Prometheus text.

The JSON *document* is the interchange form written by ``--metrics-out``
and read back by ``zcover obs --in``: a schema-versioned envelope around
one merged :class:`~repro.obs.metrics.MetricsSnapshot` plus free-form
``meta`` describing what was measured.  :func:`dumps_document` is
canonical (sorted keys, two-space indent, trailing newline), so equal
snapshots produce byte-identical files — the property the golden test
(``tests/data/obs_golden.json``) and the serial-vs-parallel CLI test pin.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Optional

from ..errors import ObsError
from ..wire import decode, encode, layout
from .metrics import (
    HISTOGRAM_BOUNDS,
    MetricsSnapshot,
    SpanStats,
    is_state_coverage_key,
    parse_coverage_key,
    parse_state_coverage_key,
)

#: Document type marker, mirroring the lint report's schema envelope.
SCHEMA = "zcover-obs-metrics"
SCHEMA_VERSION = 1


class ObsExportError(ObsError, ValueError):
    """A metrics document does not match the expected schema or version."""


# -- the JSON document ---------------------------------------------------------


@dataclass(frozen=True)
class SpanEntry:
    """A span aggregate as the document spells it (an object, not a row)."""

    count: int
    sim_time_us: int


@layout(error=ObsExportError, const=(("schema", SCHEMA), ("schema_version", SCHEMA_VERSION)))
@dataclass(frozen=True)
class MetricsDocument:
    """Layout of the schema-v1 document: free-form ``meta`` plus a snapshot."""

    meta: dict
    counters: Dict[str, int]
    gauges: Dict[str, float]
    histograms: Dict[str, Dict[str, int]]
    coverage: Dict[str, int]
    spans: Dict[str, SpanEntry]


def snapshot_to_document(
    snapshot: MetricsSnapshot, meta: Optional[dict] = None
) -> dict:
    """Wrap *snapshot* in the schema-v1 envelope."""
    return encode(
        MetricsDocument(
            meta=dict(meta or {}),
            counters=snapshot.counters,
            gauges=snapshot.gauges,
            histograms=snapshot.histograms,
            coverage=snapshot.coverage,
            spans={k: SpanEntry(s.count, s.sim_time_us) for k, s in snapshot.spans.items()},
        )
    )


def document_to_snapshot(doc: dict) -> MetricsSnapshot:
    """Rebuild the snapshot from a document, validating envelope and layout."""
    parsed = decode(MetricsDocument, doc, "metrics document")
    return MetricsSnapshot(
        counters=parsed.counters,
        gauges=parsed.gauges,
        histograms=parsed.histograms,
        coverage=parsed.coverage,
        spans={k: SpanStats(e.count, e.sim_time_us) for k, e in parsed.spans.items()},
    )


def canonical_dumps(doc: dict) -> str:
    """Canonical serialisation: sorted keys, indent 2, trailing newline.

    Shared by every schema-versioned document in the tree (obs metrics,
    chaos audits, perf benches) so "equal content ⇒ identical bytes"
    holds across subsystems, not just within one.
    """
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def dumps_document(doc: dict) -> str:
    """Canonical serialisation of a metrics document."""
    return canonical_dumps(doc)


def write_document(doc: dict, path: str) -> None:
    """Write the canonical serialisation to *path*."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_document(doc))


def load_document(path: str) -> dict:
    """Read a document and validate its envelope."""
    with open(path, "r", encoding="utf-8") as handle:
        doc = json.load(handle)
    document_to_snapshot(doc)  # envelope + layout validation
    return doc


# -- text rendering ------------------------------------------------------------


def _split_coverage(
    coverage: Dict[str, int],
) -> "tuple[Dict[str, int], Dict[str, int]]":
    """Partition the bitmap into (CMDCL×CMD keys, session-transition keys).

    The two families share one merged map (see
    :func:`repro.obs.metrics.state_coverage_key`); every renderer must
    split before parsing, since transition keys are not hex pairs.
    """
    pairs = {k: v for k, v in coverage.items() if not is_state_coverage_key(k)}
    states = {k: v for k, v in coverage.items() if is_state_coverage_key(k)}
    return pairs, states


def _coverage_by_class(coverage: Dict[str, int]) -> Dict[int, int]:
    """Per-CMDCL count of distinct exercised coordinates."""
    classes: Dict[int, int] = {}
    for key in coverage:
        if is_state_coverage_key(key):
            continue
        cmdcl, _cmd = parse_coverage_key(key)
        classes[cmdcl] = classes.get(cmdcl, 0) + 1
    return classes


def _transitions_by_flow(states: Dict[str, int]) -> Dict[str, int]:
    """Per-flow count of distinct exercised state transitions."""
    flows: Dict[str, int] = {}
    for key in states:
        flow, _state, _mark = parse_state_coverage_key(key)
        flows[flow] = flows.get(flow, 0) + 1
    return flows


def render_text(doc: dict) -> str:
    """Human-readable summary of a metrics document."""
    snapshot = document_to_snapshot(doc)
    lines = [f"{SCHEMA} v{doc.get('schema_version')}"]
    meta = doc.get("meta", {})
    if meta:
        pairs = "  ".join(f"{k}={meta[k]}" for k in sorted(meta))
        lines.append(f"meta: {pairs}")
    if snapshot.counters:
        lines += ["", "counters:"]
        width = max(len(name) for name in snapshot.counters)
        for name in sorted(snapshot.counters):
            lines.append(f"  {name.ljust(width)}  {snapshot.counters[name]}")
    if snapshot.gauges:
        lines += ["", "gauges:"]
        width = max(len(name) for name in snapshot.gauges)
        for name in sorted(snapshot.gauges):
            lines.append(f"  {name.ljust(width)}  {snapshot.gauges[name]:g}")
    pairs, states = _split_coverage(snapshot.coverage)
    if pairs:
        classes = _coverage_by_class(pairs)
        total_hits = sum(pairs.values())
        lines += [
            "",
            f"coverage: {len(pairs)} (cmdcl, cmd) coordinates over "
            f"{len(classes)} command classes, {total_hits} processed frames",
        ]
        for cmdcl in sorted(classes):
            lines.append(f"  0x{cmdcl:02x}: {classes[cmdcl]} coordinate(s)")
    if states:
        flows = _transitions_by_flow(states)
        total_hits = sum(states.values())
        lines += [
            "",
            f"session coverage: {len(states)} state transitions over "
            f"{len(flows)} flows, {total_hits} consumed frames",
        ]
        for flow in sorted(flows):
            lines.append(f"  {flow}: {flows[flow]} transition(s)")
    if snapshot.histograms:
        lines += ["", "histograms:"]
        for name in sorted(snapshot.histograms):
            hist = snapshot.histograms[name]
            buckets = "  ".join(
                f"le_{bound}={hist.get(f'le_{bound}', 0)}"
                for bound in HISTOGRAM_BOUNDS
            )
            lines.append(
                f"  {name}: count={hist.get('count', 0)} sum={hist.get('sum', 0)} "
                f"{buckets}  inf={hist.get('inf', 0)}"
            )
    if snapshot.spans:
        lines += ["", "spans (simulated time):"]
        width = max(len(name) for name in snapshot.spans)
        for name in sorted(snapshot.spans):
            stats = snapshot.spans[name]
            lines.append(
                f"  {name.ljust(width)}  count={stats.count}  "
                f"sim={stats.sim_seconds:.3f}s"
            )
    return "\n".join(lines)


# -- Prometheus textfile rendering ---------------------------------------------


def render_prometheus(doc: dict) -> str:
    """Prometheus text exposition of a metrics document.

    Suitable for the node-exporter textfile collector; meta entries are
    emitted as comments since they are labels of the whole document.
    """
    snapshot = document_to_snapshot(doc)
    lines = [f"# {SCHEMA} schema v{doc.get('schema_version')}"]
    meta = doc.get("meta", {})
    for key in sorted(meta):
        lines.append(f"# meta {key}={meta[key]}")
    for name in sorted(snapshot.counters):
        lines.append(
            f'zcover_counter_total{{name="{name}"}} {snapshot.counters[name]}'
        )
    for name in sorted(snapshot.gauges):
        lines.append(f'zcover_gauge{{name="{name}"}} {snapshot.gauges[name]:g}')
    for key in sorted(snapshot.coverage):
        if is_state_coverage_key(key):
            flow, state, mark = parse_state_coverage_key(key)
            lines.append(
                f'zcover_session_transition_total{{flow="{flow}",state="{state}",'
                f'mark="{mark}"}} {snapshot.coverage[key]}'
            )
            continue
        cmdcl, cmd = parse_coverage_key(key)
        cmd_label = "none" if cmd is None else f"{cmd:02x}"
        lines.append(
            f'zcover_coverage_total{{cmdcl="{cmdcl:02x}",cmd="{cmd_label}"}} '
            f"{snapshot.coverage[key]}"
        )
    for name in sorted(snapshot.histograms):
        hist = snapshot.histograms[name]
        cumulative = 0
        for bound in HISTOGRAM_BOUNDS:
            cumulative += hist.get(f"le_{bound}", 0)
            lines.append(
                f'zcover_histogram_bucket{{name="{name}",le="{bound}"}} {cumulative}'
            )
        lines.append(
            f'zcover_histogram_bucket{{name="{name}",le="+Inf"}} '
            f"{hist.get('count', 0)}"
        )
        lines.append(f'zcover_histogram_sum{{name="{name}"}} {hist.get("sum", 0)}')
        lines.append(
            f'zcover_histogram_count{{name="{name}"}} {hist.get("count", 0)}'
        )
    for name in sorted(snapshot.spans):
        stats = snapshot.spans[name]
        lines.append(f'zcover_span_count{{name="{name}"}} {stats.count}')
        lines.append(
            f'zcover_span_sim_seconds{{name="{name}"}} {stats.sim_seconds:g}'
        )
    return "\n".join(lines)
