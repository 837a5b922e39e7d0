"""The canonical ``BENCH_core.json`` perf document (schema v1).

Mirrors the observability export conventions: a schema-versioned
envelope and canonical serialisation (sorted keys, two-space indent,
trailing newline, via the shared :func:`repro.obs.export.canonical_dumps`).
The layout is declared once, as :class:`BenchDocument`, and
:mod:`repro.wire` derives both the encoder and the checking decoder from
it.  Two fields families live side by side and must not be confused:

* **deterministic** — ``ops`` and ``checksum`` per workload are pure
  functions of the seeded workloads and are compared exactly;
* **measured** — ``best_ns``/``mean_ns``/``ops_per_sec`` are wall-clock
  readings, and ``ratio_to_calibration`` is the machine-portable form
  the baseline gate diffs under a tolerance.

The embedded ``metrics`` member is a complete ``zcover-obs-metrics``
document (the counters the hot paths recorded while being timed), so
``zcover obs --in`` can render a bench run's side-channel directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..obs.export import canonical_dumps, snapshot_to_document
from ..wire import decode, encode, layout, load_file
from .bench import BenchReport, PerfError

SCHEMA = "zcover-perf-bench"
SCHEMA_VERSION = 1

#: The conventional document filename (CLI default, CI artifact name).
DOCUMENT_NAME = "BENCH_core.json"


@dataclass(frozen=True)
class BenchEntry:
    """One workload's row of the document."""

    ops: int
    reps: int
    checksum: int
    best_ns: int
    mean_ns: int
    ns_per_op: float
    ops_per_sec: float
    ratio_to_calibration: float


@layout(error=PerfError, const=(("schema", SCHEMA), ("schema_version", SCHEMA_VERSION)))
@dataclass(frozen=True)
class BenchDocument:
    """Layout of the schema-v1 document: free-form ``meta``, one entry per
    workload, and the embedded metrics document."""

    meta: dict
    results: Dict[str, BenchEntry]
    metrics: dict


def report_to_document(report: BenchReport, meta: Optional[dict] = None) -> dict:
    """Wrap a :class:`BenchReport` in the schema-v1 envelope."""
    ratios = report.ratios()
    results = {
        timing.name: BenchEntry(
            ops=timing.ops,
            reps=timing.reps,
            checksum=timing.checksum,
            best_ns=timing.best_ns,
            mean_ns=timing.mean_ns,
            ns_per_op=round(timing.ns_per_op, 3),
            ops_per_sec=round(timing.ops_per_sec, 3),
            ratio_to_calibration=round(ratios[timing.name], 4),
        )
        for timing in sorted(report.timings, key=lambda timing: timing.name)
    }
    return encode(
        BenchDocument(
            meta={"fast": report.fast, "repeats": report.repeats, **(meta or {})},
            results=results,
            metrics=snapshot_to_document(report.snapshot, meta={"kind": "perf-bench"}),
        )
    )


def _with_results(doc: BenchDocument) -> BenchDocument:
    """A baseline without workloads would gate nothing: reject it."""
    if not doc.results:
        raise PerfError("document carries no results")
    return doc


def validate_document(doc: dict) -> BenchDocument:
    """Decode a perf document; any layout mismatch is a :class:`PerfError`."""
    return _with_results(decode(BenchDocument, doc, "perf document"))


def load_document(path: str) -> BenchDocument:
    """Read and decode a perf document file."""
    return _with_results(load_file(BenchDocument, path))


def dumps_document(doc: dict) -> str:
    """Canonical serialisation — identical input, identical bytes."""
    return canonical_dumps(doc)


def write_document(doc: dict, path: str) -> None:
    """Write *doc* to *path* in canonical serialized form."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps_document(doc))


# -- rendering ------------------------------------------------------------------


def render_text(doc: BenchDocument) -> str:
    """Human-readable bench table of a decoded document."""
    mode = "fast" if doc.meta.get("fast") else "full"
    lines = [
        f"{SCHEMA} v{SCHEMA_VERSION} ({mode} mode, {doc.meta.get('repeats')} repetition(s))",
        "",
        f"{'workload':<22} {'ops':>7} {'ns/op':>12} {'ops/sec':>12} {'xCal':>9}",
    ]
    for name in sorted(doc.results):
        entry = doc.results[name]
        lines.append(
            f"{name:<22} {entry.ops:>7} {entry.ns_per_op:>12.1f} "
            f"{entry.ops_per_sec:>12.1f} {entry.ratio_to_calibration:>9.2f}"
        )
    return "\n".join(lines)
