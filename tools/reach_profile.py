#!/usr/bin/env python3
"""Function-level reach profile: which functions of ``src/repro`` run at all.

Runs every entry point a user or CI reaches — the ``zcover`` commands at
short horizons, the CI-only ones (``perf --baseline``, ``lint --strict``,
``lint --check-manifest``, a ``flaky`` chaos plan), ``obs --trace-out``, a
``lossy`` fault-plan run, a plan file with a worker ``raise`` fault, a
coverage-scheduled campaign long enough to leave its probe sweep and a
canonical chaos run long enough for its abort, lint
findings and a rejected spec, two lives of a real ``zcover serve`` on one
checkpoint (see :func:`run_service`), ``run_sessions`` over all six
flows, every example and the paper benches — under
``sys.setprofile``/``threading.setprofile``, and prints per module how
many of its functions were called.  Forked worker processes (the
service's pool, ``--workers 2``) record their calls too, fork hooks
included.

The run exits 1, naming each problem on stderr, when

* a ``src/repro`` module has no function called (``errors.py`` excepted:
  its one function, ``SpanValueError.__init__``, runs only on a caller's
  bug);
* a function no entry point calls is not listed in ``reach_allowlist.txt``
  next to this tool, with one reason from :data:`REASONS`;
* a listed function is called after all, or no longer exists.

Usage::

    python tools/reach_profile.py [--uncalled]

``--uncalled`` also lists every function that never ran.  The run takes
about 60 s on a 2-CPU x86-64 machine and writes only to a temporary
directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import multiprocessing.util
import os
import runpy
import signal
import socket
import sys
import tempfile
import threading
import time
import urllib.request
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
sys.path.insert(0, str(ROOT / "src"))

#: Simulated hours for every campaign the profile runs.
HOURS = "0.05"

#: Simulated hours of the runs that must get past what the short horizon
#: never reaches: the coverage scheduler's probe sweep (its corpus, havoc
#: and energy code runs after it) and the canonical plan's abort at 480 s.
LONG_HOURS = "0.5"

#: The committed list of functions no entry point calls, with reasons.
ALLOWLIST = Path(__file__).resolve().parent / "reach_allowlist.txt"

#: Why a function may stay although no entry point calls it.
REASONS = (
    "error-path",  # runs only on a failure the profile does not provoke
    "reference-oracle",  # a reference implementation tests check the product against
    "perfbench-name",  # imported by perfbench, which is frozen
    "beyond-horizon",  # runs only past the profile's simulated horizons
    "test-observes-state",  # a view tests read where no product path exposes the state
)

#: A fault plan whose worker fault raises in the first unit's worker.
RAISE_PLAN = {
    "schema": "zcover-fault-plan",
    "schema_version": 1,
    "name": "raise0",
    "faults": [{"layer": "worker", "kind": "raise", "unit_index": 0}],
}

#: Modules that may have no function called: ``errors.py``'s one function
#: is ``SpanValueError.__init__``, raised only on a caller's bug.
MAY_BE_UNCALLED = frozenset({"errors.py"})

_CO_OPTIMIZED = 0x0001  # set on function code, not on module or class bodies


def defined_functions() -> dict:
    """Every named function under ``src/repro``: ``(file, line, name)`` -> qualname."""
    functions = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
        while stack:
            code = stack.pop()
            stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
            if code.co_flags & _CO_OPTIMIZED and not code.co_name.startswith("<"):
                key = (code.co_filename, code.co_firstlineno, code.co_name)
                functions[key] = getattr(code, "co_qualname", code.co_name)
    return functions


class Recorder:
    """The code objects entered in this process (and, merged, its forks)."""

    def __init__(self, spool: Path):
        self.seen = set()
        self.spool = spool

    def __call__(self, frame, event, arg) -> None:
        if event == "call":
            self.seen.add(frame.f_code)

    def install(self) -> None:
        sys.setprofile(self)
        threading.setprofile(self)
        # A forked child starts afresh before any later fork hook runs (the
        # service registers one when it is imported, after this), so the
        # hooks' calls are kept; multiprocessing runs its own after-fork
        # callbacks later still, once the process object is set up.
        os.register_at_fork(after_in_child=self.seen.clear)
        multiprocessing.util.register_after_fork(self, Recorder._in_child)

    def _in_child(self) -> None:
        # A forked pool worker: write what it ran to the spool when
        # multiprocessing finalises the process.
        sys.setprofile(self)
        multiprocessing.util.Finalize(None, self._dump, exitpriority=100)

    def _dump(self) -> None:
        sys.setprofile(None)
        with open(self.spool / f"{os.getpid()}.txt", "w", encoding="utf-8") as handle:
            for key in self.keys():
                handle.write("%s\t%d\t%s\n" % key)

    def keys(self) -> set:
        """The entered functions as ``(file, line, name)`` keys."""
        return {(c.co_filename, c.co_firstlineno, c.co_name) for c in self.seen}

    def merged_keys(self) -> set:
        """This process's keys and every finished fork's."""
        keys = self.keys()
        for path in self.spool.glob("*.txt"):
            for line in path.read_text(encoding="utf-8").splitlines():
                filename, lineno, name = line.split("\t")
                keys.add((filename, int(lineno), name))
        return keys


def zcover(*argv: str) -> None:
    """One in-process ``zcover`` run; its exit code does not matter here."""
    from repro.cli import main

    try:
        main(list(argv))
    except SystemExit:
        pass


def run_commands(work: Path) -> None:
    """The ``zcover`` commands, the CI-only entry points included."""
    bugs, trace, metrics = work / "bugs.jsonl", work / "trace.jsonl", work / "m.json"
    session_metrics = work / "sm.json"
    zcover("scan")
    zcover("discover", "--device", "D3")
    zcover("fuzz", "--hours", HOURS, "--log", str(bugs), "--json", str(work / "f.json"))
    zcover("fuzz", "--hours", HOURS, "--mode", "beta")
    zcover("fuzz", "--hours", HOURS, "--mode", "gamma")
    for which in ("2", "3", "5"):
        zcover("table", "--which", which)
    zcover("figure", "--which", "5")
    zcover("figure", "--which", "12", "--hours", HOURS)
    zcover("sniff", "--seconds", "120", "--out", str(trace))
    zcover("replay", str(trace))
    zcover("triage", "--log", str(bugs))
    zcover("ids", "--train-seconds", "600")
    zcover("report", "--hours", HOURS, "--out", str(work / "r.md"), "--svg", str(work / "r.svg"))
    zcover("trials", "--trials", "2", "--hours", HOURS, "--metrics-out", str(metrics))
    zcover("trials", "--trials", "2", "--hours", HOURS, "--workers", "2")
    zcover("trials", "--trials", "1", "--hours", HOURS, "--fault-plan", "lossy")
    plan = work / "raise0.json"
    plan.write_text(json.dumps(RAISE_PLAN), encoding="utf-8")
    zcover("trials", "--trials", "2", "--hours", HOURS, "--fault-plan", str(plan),
           "--workers", "2")
    zcover("trials", "--trials", "1", "--hours", LONG_HOURS, "--scheduler", "coverage")
    zcover("chaos", "--trials", "1", "--hours", LONG_HOURS, "--format", "json")
    zcover("chaos", "--trials", "2", "--hours", HOURS, "--plan", "flaky")
    zcover("sessions", "--trials", "4", "--json", str(work / "s.json"),
           "--metrics-out", str(session_metrics))
    zcover("ablation", "--hours", HOURS, "--scheduler", "coverage")
    zcover("compare", "--devices", "D1,D2", "--hours", HOURS)
    zcover("obs", "--hours", HOURS, "--format", "prom", "--trace-out", str(work / "spans.jsonl"))
    for document in (metrics, session_metrics):
        zcover("obs", "--in", str(document))
    zcover("obs", "--in", str(session_metrics), "--format", "prom")
    zcover("perf", "--fast", "--repeats", "1", "--out", str(work / "perf.json"),
           "--baseline", str(ROOT / "benchmarks" / "baselines" / "BENCH_core.json"))
    # Two runs, as in CI's lint job: the drift gate returns before the
    # strict exit code, so one run would hide that path on any drift.
    zcover("lint", "--strict", "--format", "sarif", "--out", str(work / "lint.sarif"))
    zcover("lint", "--check-manifest", str(ROOT / "purity_manifest.json"),
           "--out", str(work / "lint.txt"))
    zcover("submit", "--direct", "--kind", "compare", "--devices", "D1,D2", "--hours", HOURS,
           "--out", str(work / "direct.json"))
    # The paths a user with bad input reaches: lint findings, a rejected
    # spec, a metrics document with a mistyped counter.
    for fmt in ("text", "json", "sarif"):
        zcover("lint", "--root", str(ROOT / "tests" / "data" / "lint_fixture"), "--format", fmt)
    zcover("compare", "--devices", "D9")
    mistyped = work / "mistyped.json"
    mistyped.write_text(json.dumps({**json.loads(metrics.read_text()), "counters": {"a": "5"}}))
    zcover("obs", "--in", str(mistyped))


def serve_life(work: Path, drive) -> None:
    """A real ``zcover serve`` on this thread, on the checkpoint in *work*,
    while ``drive(port)`` talks to it from another; SIGTERM ends it."""
    from repro.serve.client import ServeClient, ServeClientError

    with socket.socket() as probe:
        probe.bind(("127.0.0.1", 0))
        port = str(probe.getsockname()[1])
    failures = []

    def client() -> None:
        deadline = time.monotonic() + 60
        while True:
            try:
                ServeClient(port=int(port)).healthz()
                break
            except ServeClientError as exc:
                if time.monotonic() > deadline:
                    failures.append(exc)
                    return
                time.sleep(0.1)
        try:
            drive(port)
        except BaseException as exc:  # re-raised on the serving thread
            failures.append(exc)
        finally:
            os.kill(os.getpid(), signal.SIGTERM)  # the service drains and returns

    thread = threading.Thread(target=client)
    thread.start()
    zcover("serve", "--port", port, "--workers", "1",
           "--checkpoint", str(work / "serve.ckpt"))
    thread.join()
    if failures:
        raise failures[0]


#: The job the first service life is stopped in; the second resumes it.
#: Once its first unit settles, at most three more have left the pool's
#: queue (one in the worker, two in its call queue), so with six units
#: the stop always finds some to cancel and the job goes back to queued.
RESUMED = ("--kind", "trials", "--trials", "6", "--seed", "1", "--hours", "0.2")


def run_service(work: Path) -> None:
    """Two lives of ``zcover serve`` on one checkpoint, fed by ``zcover
    submit``.

    The first runs a trials job and, started behind it while it settles,
    a sessions job; asks every read route (``GET /jobs``,
    ``/jobs/<id>/progress``, ``/metrics``; ``/healthz`` is polled at
    boot) and a mistyped job id; and is stopped while a third job runs,
    which goes back to ``queued``.  The second restores the checkpoint
    (the finished jobs from their result files, the stopped one from its
    units), compacts it, finishes the stopped job and serves a stored
    result.
    """
    from repro.serve.client import ServeClient, ServeClientError

    def first(port: str) -> None:
        client = ServeClient(port=int(port))
        zcover("submit", "--port", port, "--kind", "trials", "--trials", "2", "--hours", HOURS)
        zcover("submit", "--port", port, "--kind", "sessions", "--flows", "s0,ota",
               "--hours", HOURS, "--wait", "--out", str(work / "served-sessions.json"))
        base = f"http://127.0.0.1:{port}"
        with urllib.request.urlopen(f"{base}/jobs") as response:
            job_ids = [job["job_id"] for job in json.load(response)["jobs"]]
        for job_id in job_ids:
            client.progress(job_id)
        urllib.request.urlopen(f"{base}/metrics").close()
        with contextlib.suppress(ServeClientError):
            client.status("0" * 16)
        zcover("submit", "--port", port, *RESUMED)
        with urllib.request.urlopen(f"{base}/jobs") as response:
            resumed = json.load(response)["jobs"][-1]["job_id"]
        while client.status(resumed).state == "queued":
            time.sleep(0.01)

    def second(port: str) -> None:
        zcover("submit", "--port", port, *RESUMED, "--wait",
               "--out", str(work / "served-resumed.json"))
        zcover("submit", "--port", port, "--kind", "trials", "--trials", "2", "--hours", HOURS,
               "--wait", "--out", str(work / "served-trials.json"))

    serve_life(work, first)
    serve_life(work, second)


def run_library() -> None:
    """The library entry perfbench's ``sessions`` workload times, all six flows."""
    from repro.core.session import FLOWS, run_sessions

    run_sessions("D1", flows=FLOWS)


def run_examples() -> None:
    """Every script under ``examples/``; the paper reproduction at a short horizon."""
    for script in sorted((ROOT / "examples").glob("*.py")):
        argv = [str(script)] + (["0.25"] if script.stem == "reproduce_paper" else [])
        saved, sys.argv = sys.argv, argv
        try:
            runpy.run_path(str(script), run_name="__main__")
        finally:
            sys.argv = saved


def run_benches() -> None:
    """The paper-table benches under ``benchmarks/``, timers off."""
    import pytest

    os.environ["ZCOVER_BENCH_HOURS"] = HOURS
    pytest.main(["-q", "-p", "no:cacheprovider", "--benchmark-disable",
                 str(ROOT / "benchmarks")])


def report(functions: dict, called: set, uncalled: bool) -> str:
    """The per-module table (and, with *uncalled*, the functions that never ran)."""
    per_module = defaultdict(lambda: [0, 0])
    missing = defaultdict(list)
    for key, qualname in functions.items():
        module = str(Path(key[0]).relative_to(PACKAGE))
        per_module[module][0] += 1
        if key in called:
            per_module[module][1] += 1
        else:
            missing[module].append(qualname)
    lines = [f"{'module':<34} {'functions':>9} {'called':>6} {'never':>5}"]
    for module in sorted(per_module):
        total, hit = per_module[module]
        lines.append(f"{module:<34} {total:>9} {hit:>6} {total - hit:>5}")
    total = len(functions)
    hit = sum(h for _, h in per_module.values())
    lines.append(f"{'total':<34} {total:>9} {hit:>6} {total - hit:>5}")
    dead = dead_modules(functions, called)
    lines.append("modules with no function called: " + (", ".join(dead) or "none"))
    if uncalled:
        for module in sorted(missing):
            lines.append(f"{module}: " + ", ".join(sorted(missing[module])))
    return "\n".join(lines)


def dead_modules(functions: dict, called: set) -> list:
    """The modules (relative to ``src/repro``) none of whose functions ran."""
    reached = {key[0] for key in functions if key in called}
    return sorted({str(Path(key[0]).relative_to(PACKAGE)) for key in functions
                   if key[0] not in reached})


def function_name(key: tuple, qualname: str) -> str:
    """A function as the allowlist names it: ``<module>::<qualname>``."""
    return f"{Path(key[0]).relative_to(PACKAGE)}::{qualname}"


def load_allowlist(path: Path = ALLOWLIST) -> dict:
    """The allowlist's ``name -> reason`` entries, in file order.

    A line is ``<module>::<qualname> <reason>``; blank lines and ``#``
    comments are skipped.  A malformed line, an unknown reason or a name
    listed twice raises :class:`ValueError` naming the line.
    """
    entries = {}
    for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        fields = line.split("#", 1)[0].split()
        if not fields:
            continue
        if len(fields) != 2 or "::" not in fields[0] or fields[1] not in REASONS:
            raise ValueError(f"{path.name}:{number}: expected '<module>::<qualname> <reason>' "
                             f"with a reason from {', '.join(REASONS)}: {line.strip()!r}")
        if fields[0] in entries:
            raise ValueError(f"{path.name}:{number}: {fields[0]} is listed twice")
        entries[fields[0]] = fields[1]
    return entries


def function_problems(functions: dict, called: set, allowed: dict) -> list:
    """What the allowlist gets wrong about this run, one line per function.

    A name that several functions share (a property's getter and setter)
    counts as never called while any of them is.
    """
    never, defined = set(), set()
    for key, qualname in functions.items():
        name = function_name(key, qualname)
        defined.add(name)
        if key not in called:
            never.add(name)
    problems = [f"{name}: never called and not in {ALLOWLIST.name}"
                for name in sorted(never - set(allowed))]
    for name in sorted(allowed):
        if name not in defined:
            problems.append(f"{name}: listed in {ALLOWLIST.name} but not defined")
        elif name not in never:
            problems.append(f"{name}: listed in {ALLOWLIST.name} as {allowed[name]} but called")
    return problems


def verdict(functions: dict, called: set, allowed: dict) -> int:
    """0, or 1 after naming on stderr each module only its own tests reach
    and each function the allowlist gets wrong."""
    dead = [m for m in dead_modules(functions, called) if m not in MAY_BE_UNCALLED]
    problems = function_problems(functions, called, allowed)
    if dead:
        print("reach: no function called in " + ", ".join(dead), file=sys.stderr)
    for problem in problems:
        print(f"reach: {problem}", file=sys.stderr)
    return 1 if dead or problems else 0


def main() -> int:
    """Run every entry point under the profiler and print the table."""
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--uncalled", action="store_true", help="list the functions never called")
    args = parser.parse_args()
    allowed = load_allowlist()
    functions = defined_functions()
    with tempfile.TemporaryDirectory(prefix="reach-") as tmp:
        work = Path(tmp)
        spool = work / "spool"
        spool.mkdir()
        recorder = Recorder(spool)
        cwd = os.getcwd()
        os.chdir(work)  # reproduce_paper.py writes its figures here
        recorder.install()
        try:
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                run_commands(work)
                run_service(work)
                run_library()
                run_examples()
                run_benches()
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
            os.chdir(cwd)
        called = recorder.merged_keys()
    print(report(functions, called, args.uncalled))
    return verdict(functions, called, allowed)


if __name__ == "__main__":
    sys.exit(main())
