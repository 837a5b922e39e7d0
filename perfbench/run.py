#!/usr/bin/env python3
"""ZCover end-to-end benchmark: campaigns, sessions and served jobs.

Run from the repository root::

    python3 perfbench/run.py --workload campaign --seed 0 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
outside-in layer trace instead and prints the per-layer metrics.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See README.md.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import resource
import subprocess
import sys
import time
from collections import Counter
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

WORKLOADS = ("campaign", "sessions", "served")

#: End-to-end metrics, in BENCHMARK.json order: name -> unit.
END_TO_END: Dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_per_s": "1/s",
    "item_s_p50": "s",
    "item_s_p90": "s",
}

#: What ``work_per_s`` counts on each workload, by its own name.
WORK_NAME = {"campaign": "packets_per_s", "sessions": "trials_per_s", "served": "jobs_per_s"}

#: Fresh interpreters timed from spawn to ready; ``setup_s`` is their median.
SETUP_PROBES = 11


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", choices=WORKLOADS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.probe is None and args.workload is None:
        parser.error("--workload is required")
    return args


def compile_sources() -> None:
    """Write bytecode up front so no timed set-up pays for compilation."""
    for path in (SRC, HERE):
        compileall.compile_dir(path, quiet=1, workers=1)


# -- set-up probes -------------------------------------------------------------


def run_probe(workload: str) -> int:
    """Child side: set up, report, wait for the parent, tear down."""
    from workloads import set_up

    timings = set_up(workload, OUT_DIR)
    service = timings.pop("service", None)
    print(json.dumps(timings), flush=True)
    sys.stdin.read()
    if service is not None:
        service.stop()
    return 0


def probe_setup(workload: str) -> Dict[str, float]:
    """Time one fresh interpreter from spawn until its set-up is done."""
    start = time.perf_counter()
    child = subprocess.Popen(
        [sys.executable, os.path.abspath(__file__), "--probe", workload],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        cwd=ROOT,
    )
    try:
        line = child.stdout.readline()
        total = time.perf_counter() - start
    finally:
        child.stdin.close()
        child.wait(timeout=120)
        child.stdout.close()
    if child.returncode != 0 or not line:
        raise RuntimeError(f"set-up probe for {workload} failed (exit {child.returncode})")
    timings = json.loads(line)
    timings["setup_s"] = total
    return timings


# -- the two kinds of run ------------------------------------------------------


def _item_percentiles(times: List[float]) -> Dict[str, float]:
    from measure import highest_percentile, percentile

    best = highest_percentile(len(times))
    if best is None or best < 90.0:
        print(
            f"note: {len(times)} items; p90 needs at least 100 for ten samples beyond it",
            file=sys.stderr,
        )
    return {"item_s_p50": percentile(times, 50.0), "item_s_p90": percentile(times, 90.0)}


def end_to_end_run(args, setup: Dict[str, float], tally) -> Dict[str, float]:
    from measure import median, percentile
    from workloads import IN_PROCESS, SERVED_JOBS, item_loop, served_loop, set_up

    own = set_up(args.workload, OUT_DIR)
    service = own.pop("service", None)
    try:
        if service is None:
            count = IN_PROCESS[args.workload].count
            loop = item_loop(IN_PROCESS[args.workload], args.seed, args.seconds, tally)
        else:
            count = SERVED_JOBS
            loop = served_loop(service, args.seed, args.seconds, tally, _spool_path())
    finally:
        if service is not None:
            service.stop()
    times = loop.scaled_times
    if not times:
        raise RuntimeError("no item completed")
    if loop.submitted < count:
        print(
            f"note: the {args.seconds:g} s cap stopped the run after {loop.submitted} "
            f"of {count} items; its figures cover fewer items than a full run",
            file=sys.stderr,
        )
    metrics = {
        "setup_s": setup["setup_s"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "work_per_s": loop.work_per_s,
    }
    metrics.update(_item_percentiles(times))
    print(
        f"{args.workload}: {len(times)} items, "
        f"{WORK_NAME[args.workload]}={metrics['work_per_s']:.2f} 1/s "
        f"(work {loop.work}), p50={metrics['item_s_p50']:.4f} s, "
        f"p90={metrics['item_s_p90']:.4f} s, peak_rss={metrics['peak_rss_mb']:.1f} MB, "
        f"setup={metrics['setup_s']:.4f} s; unscaled: "
        f"p50={percentile(loop.item_times, 50.0):.4f} s, "
        f"p90={percentile(loop.item_times, 90.0):.4f} s, "
        f"median host scale {median(loop.item_scales):.3f}"
    )
    return metrics


def traced_run(args, setup: Dict[str, float], tally) -> Dict[str, float]:
    import layers
    from spans import SpanLog
    from workloads import IN_PROCESS, Served, served_loop, set_up, traced_item_loop

    own = set_up(args.workload, OUT_DIR)
    service = own.pop("service", None)
    log = SpanLog()
    metrics = {name: 0.0 for name in layers.PER_LAYER}
    for name in ("setup.import_s", "registry.load_s", "serve.boot_s"):
        metrics[name] = setup[name]
    item_span = None
    if service is None:
        workload = IN_PROCESS[args.workload]
        item_span = workload.item_span
        counts: Counter = Counter()
        install, facts_of, reduce = {
            "campaign": (layers.install_campaign, layers.campaign_facts,
                         layers.campaign_metrics),
            "sessions": (layers.install_sessions, layers.session_facts,
                         layers.session_metrics),
        }[args.workload]
        loop = traced_item_loop(
            workload, args.seed, args.seconds, tally, log,
            install=lambda: install(log, counts), facts_of=facts_of,
        )
        table = log.self_by_name()
        metrics.update(reduce(table, counts, loop.facts))
    else:
        # Served jobs are idempotent per service, so the untraced and the
        # traced pass each get their own service over the same jobs.
        try:
            plain = served_loop(service, args.seed, args.seconds / 2, tally, _spool_path())
        finally:
            service.stop()
        service = Served(OUT_DIR)
        probe = layers.ServedProbe()
        try:
            before = _units_completed(service)
            layers.install_served(log, probe)
            try:
                loop = served_loop(
                    service, args.seed, args.seconds, tally, _spool_path(),
                    limit=plain.submitted, log=log, done_at=probe.done_at,
                )
            finally:
                log.unwrap()
            rss = max((layers.process_hwm_mb(pid) for pid in service.worker_pids()), default=0.0)
            units = _units_completed(service) - before
        finally:
            service.stop()
        loop.overhead_ratio = loop.wall_s / plain.wall_s if plain.wall_s else None
        table = log.self_by_name()
        metrics.update(layers.served_metrics(log, table, probe, loop.facts, units, rss))
    if loop.overhead_ratio is None:
        raise RuntimeError("no item completed")
    metrics["trace.overhead_ratio"] = loop.overhead_ratio
    print_layer_table(table, item_span, len(loop.facts))
    log.write(os.path.join(OUT_DIR, f"spans-{args.workload}.jsonl.gz"))
    return metrics


def _spool_path() -> str:
    return os.path.join(OUT_DIR, f"spool-{os.getpid()}.bin")


def _units_completed(service) -> int:
    snapshot = service.thread.service.collector.snapshot()
    return snapshot.counters.get("serve.units.completed", 0)


def print_layer_table(table: Dict[str, list], item_span, items: int) -> None:
    """Self time per span name; the item span's own self time is 'unattributed'."""
    total = table[item_span][2] if item_span in table else 0.0
    print(f"{'span':<24}{'calls':>10}{'self s/item':>14}{'incl s/item':>14}{'share':>8}")
    for name, (count, own, incl) in sorted(table.items(), key=lambda kv: -kv[1][1]):
        label = "unattributed" if name == item_span else name
        share = f"{own / total:8.1%}" if total else f"{'':>8}"
        print(f"{label:<24}{count:>10}{own / max(items, 1):>14.6f}"
              f"{incl / max(items, 1):>14.6f}{share}")


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program sources at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(OUT_DIR, exist_ok=True)
    if args.probe is not None:
        return run_probe(args.probe)

    from checks import DEFAULT_SEED, Tally, load_table
    from layers import PER_LAYER
    from measure import median

    compile_sources()
    probes = [probe_setup(args.workload) for _ in range(SETUP_PROBES)]
    setup = {key: median([p[key] for p in probes]) for key in probes[0]}
    expected = load_table()[args.workload] if args.seed == DEFAULT_SEED else None
    tally = Tally(expected)
    if args.trace:
        metrics = traced_run(args, setup, tally)
        units = PER_LAYER
    else:
        metrics = end_to_end_run(args, setup, tally)
        units = END_TO_END
    for reason in tally.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    print(
        f"checked {tally.attempted} items ({tally.digest_checked} against the digest "
        f"table), {tally.failed} failed"
    )
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
