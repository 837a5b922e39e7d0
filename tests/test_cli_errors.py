"""Bad input at the CLI is one line on stderr and exit 2, never a traceback.

Each case hands a subcommand a malformed document, line, plan, manifest
or spec.  ``main`` turns the library's ``ReproError`` (and an ``OSError``
from opening a path) into ``zcover <command>: <message>``.  The cases run
in a subprocess, so an escaping exception would show as a traceback.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE = REPO_ROOT / "benchmarks" / "baselines" / "BENCH_core.json"
LINT_FIXTURE = REPO_ROOT / "tests" / "data" / "lint_fixture"


def _baseline(edit):
    doc = json.loads(BASELINE.read_text())
    edit(doc)
    return json.dumps(doc)


def _set(path, value):
    def edit(doc):
        *parents, last = path
        for key in parents:
            doc = doc[key]
        doc[last] = value

    return edit


def _perf(text):
    return ["perf", "--fast", "--repeats", "1", "--workloads", "frame_codec", "--baseline", text]


#: case id -> (argv with ``{input}`` for the written file, file contents)
CASES = {
    "obs-in-array": (["obs", "--in", "{input}"], "[]"),
    "obs-in-truncated": (["obs", "--in", "{input}"], '{"schema": "zcover-obs-metrics", "meta": {'),
    "obs-in-missing-file": (["obs", "--in", "{input}.absent"], "{}"),
    "perf-baseline-array": (_perf("{input}"), "[]"),
    "perf-baseline-list-entry": (_perf("{input}"), _baseline(_set(["results", "calibration"], [1]))),
    "perf-baseline-text-best-ns": (
        _perf("{input}"),
        _baseline(_set(["results", "frame_codec", "best_ns"], "x")),
    ),
    "perf-baseline-without-meta": (_perf("{input}"), _baseline(lambda doc: doc.pop("meta"))),
    "perf-update-without-baseline": (["perf", "--update-baseline"], ""),
    "replay-bad-line": (["replay", "{input}"], '{"t": 1.0\n'),
    "replay-non-utf8-line": (["replay", "{input}"], b'\xff{"t": 1.0}\n'),
    "triage-bad-line": (["triage", "--log", "{input}"], "[1]\n"),
    "trials-bad-fault-plan": (
        ["trials", "--trials", "1", "--hours", "0.01", "--fault-plan", "{input}"],
        '{"faults": 5}',
    ),
    "lint-manifest-array": (
        ["lint", "--root", str(LINT_FIXTURE), "--out", os.devnull, "--check-manifest", "{input}"],
        "[]",
    ),
    "submit-invalid-spec": (["submit", "--direct", "--trials", "0"], ""),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_is_one_line_and_exit_2(case, tmp_path):
    argv, contents = CASES[case]
    path = tmp_path / "input.json"
    path.write_bytes(contents if isinstance(contents, bytes) else contents.encode())
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "repro.cli", *(arg.format(input=path) for arg in argv)],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"zcover {argv[0]}: ")
