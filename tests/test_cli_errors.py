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
    "trials-absent-plan-file": (
        ["trials", "--trials", "1", "--hours", "0.01", "--fault-plan", "{input}.absent"],
        "",
    ),
    "lint-manifest-array": (
        ["lint", "--root", str(LINT_FIXTURE), "--out", os.devnull, "--check-manifest", "{input}"],
        "[]",
    ),
    "submit-invalid-spec": (["submit", "--direct", "--trials", "0"], ""),
    # Commands that run units check their spec as POST /jobs does, first.
    "compare-unknown-device": (["compare", "--devices", "D9"], ""),
    "trials-negative-count": (["trials", "--trials", "-3"], ""),
    "chaos-zero-trials": (["chaos", "--trials", "0"], ""),
    "chaos-plan-worker-timeout": (
        ["chaos", "--trials", "1", "--hours", "0.01", "--plan", "{input}"],
        json.dumps({
            "schema": "zcover-fault-plan", "schema_version": 1, "name": "t",
            "faults": [{"layer": "worker", "kind": "timeout"}],
        }),
    ),
}


def _cli(argv, cwd):
    env = dict(os.environ, PYTHONPATH=str(REPO_ROOT / "src"))
    return subprocess.run(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


#: case id -> text its message must carry (``{input}`` as in CASES)
MESSAGES = {
    "trials-absent-plan-file": "no fault plan file '{input}.absent'",
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_input_is_one_line_and_exit_2(case, tmp_path):
    argv, contents = CASES[case]
    path = tmp_path / "input.json"
    path.write_bytes(contents if isinstance(contents, bytes) else contents.encode())
    proc = _cli([arg.format(input=path) for arg in argv], tmp_path)
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith(f"zcover {argv[0]}: ")
    assert MESSAGES.get(case, "").format(input=path) in lines[0]


def test_removed_serve_retries_option_is_a_usage_error():
    from repro.cli import build_parser

    with pytest.raises(SystemExit) as exit_:
        build_parser().parse_args(["serve", "--retries", "1"])
    assert exit_.value.code == 2


def test_chaos_plan_file_counts_as_its_plan(tmp_path):
    from repro.cli import main
    from repro.faults.plan import canonical_mixed_plan, dumps_plan

    plan = tmp_path / "canonical.json"
    plan.write_text(dumps_plan(canonical_mixed_plan()), encoding="utf-8")
    base = ["chaos", "--trials", "1", "--hours", "0.01", "--format", "json", "--out"]
    assert main(base + [str(tmp_path / "stock.json"), "--plan", "canonical"]) == 0
    assert main(base + [str(tmp_path / "file.json"), "--plan", str(plan)]) == 0
    assert (tmp_path / "file.json").read_bytes() == (tmp_path / "stock.json").read_bytes()


def test_stock_plan_name_is_never_read_as_a_file(tmp_path, monkeypatch):
    from repro.cli import main

    (tmp_path / "lossy").write_text("not a plan")
    monkeypatch.chdir(tmp_path)
    assert main(["trials", "--trials", "1", "--hours", "0.01", "--fault-plan", "lossy"]) == 0


def test_existing_file_named_like_no_stock_plan_is_read(tmp_path, monkeypatch, capsys):
    from repro.cli import main
    from repro.faults.plan import dumps_plan, lossy_link_plan

    (tmp_path / "lossey").write_text(dumps_plan(lossy_link_plan()), encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    base = ["trials", "--trials", "1", "--hours", "0.01", "--fault-plan"]
    assert main(base + ["lossy"]) == 0
    stock = capsys.readouterr().out
    assert main(base + ["lossey"]) == 0
    assert capsys.readouterr().out == stock


def test_pooled_runs_leave_stderr_empty(tmp_path):
    # The executor waits for its pool's workers once every unit settled,
    # so nothing is left for the interpreter's exit hook to trip on.
    for _ in range(4):
        proc = _cli(["trials", "--trials", "2", "--hours", "0.02", "--workers", "2"], tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
