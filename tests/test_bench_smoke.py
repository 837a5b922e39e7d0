"""Smoke suite: every benchmark and the perf CLI run end to end.

The figure/table benches only exercise their strict paper-value
assertions on long horizons, so the whole ``benchmarks/`` tree can be
smoke-tested at a three-minute simulated horizon; this is what keeps the
benches runnable at all between the occasional full reproduction runs.
The perf harness is checked the way CI consumes it: fast mode, canonical
JSON on stdout that decodes against the document layout.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.obs.export import MetricsDocument
from repro.perf.document import (
    SCHEMA,
    SCHEMA_VERSION,
    dumps_document,
    validate_document,
)
from repro.perf.workloads import WORKLOADS
from repro.wire import decode

REPO_ROOT = Path(__file__).resolve().parent.parent


def run_tool(argv, env_overrides=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(REPO_ROOT / "src")
    env.update(env_overrides or {})
    return subprocess.run(
        argv, cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=1200
    )


class TestBenchmarkSuite:
    def test_all_benches_pass_at_smoke_horizon(self):
        proc = run_tool(
            [
                sys.executable,
                "-m",
                "pytest",
                "benchmarks",
                "-q",
                "-p",
                "no:cacheprovider",
                "--benchmark-disable",
            ],
            env_overrides={"ZCOVER_BENCH_HOURS": "0.05"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr


class TestPerfCli:
    def test_fast_mode_emits_canonical_schema_valid_document(self):
        proc = run_tool(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "perf",
                "--fast",
                "--repeats",
                "1",
                "--format",
                "json",
            ]
        )
        assert proc.returncode == 0, proc.stderr
        doc = json.loads(proc.stdout)
        validate_document(doc)
        assert doc["schema"] == SCHEMA
        assert doc["schema_version"] == SCHEMA_VERSION
        assert set(doc["results"]) == set(WORKLOADS) | {"calibration"}
        # Canonical serialization: stdout is byte-for-byte re-serializable.
        assert proc.stdout == dumps_document(doc)
        # The embedded metrics snapshot is itself a valid obs document.
        decode(MetricsDocument, doc["metrics"], "metrics document")
