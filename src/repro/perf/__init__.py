"""Hot-path microbenchmarks with a regression-gated canonical document.

``zcover perf`` runs the seeded workloads in :mod:`repro.perf.workloads`
through the harness in :mod:`repro.perf.bench` and emits the canonical
``BENCH_core.json`` described by :mod:`repro.perf.document`; CI diffs it
against the committed baseline under a tolerance gate.
"""

from .bench import (
    BenchReport,
    BenchTiming,
    PerfError,
    Regression,
    compare,
    resolve_workloads,
    run_bench,
)
from .document import (
    DOCUMENT_NAME,
    SCHEMA,
    SCHEMA_VERSION,
    dumps_document,
    load_document,
    render_text,
    report_to_document,
    validate_document,
    write_document,
)
from .workloads import CALIBRATION, WORKLOADS, WorkloadRun

__all__ = [
    "BenchReport",
    "BenchTiming",
    "CALIBRATION",
    "DOCUMENT_NAME",
    "PerfError",
    "Regression",
    "SCHEMA",
    "SCHEMA_VERSION",
    "WORKLOADS",
    "WorkloadRun",
    "compare",
    "dumps_document",
    "load_document",
    "render_text",
    "report_to_document",
    "resolve_workloads",
    "run_bench",
    "validate_document",
    "write_document",
]
