"""Command-line interface: drive ZCover experiments from a shell.

Usage examples::

    zcover scan --device D1
    zcover discover --device D3
    zcover fuzz --device D1 --hours 1 --mode full --log bugs.jsonl
    zcover ablation --device D1 --hours 1
    zcover compare --devices D1,D2,D3 --hours 6
    zcover table --which 2

Everything runs against the simulated Table II testbed (see DESIGN.md for
the hardware-substitution rationale); durations are simulated hours, not
wall-clock hours.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .analysis.report import render_figure5, render_figure12, render_table2, render_table3
from .analysis.triage import CrashTriage, render_triage_report
from .core.buglog import BugLog
from .core.campaign import HOUR, Mode, run_campaign
from .core.discovery import discover_unknown_properties
from .core.fingerprint import fingerprint
from .core.scheduler import SCHEDULERS
from .errors import CampaignError, ReproError
from .obs.export import (
    MetricsDocument,
    load_document,
    render_prometheus,
    render_text,
    snapshot_to_document,
    write_document,
)
from .obs.tracing import Tracer
from .radio.trace import dissect_trace, load_trace, save_trace, TraceRecord
from .serve.protocol import JOB_KINDS, JobSpec, SpecError
from .simulator.testbed import CONTROLLER_IDS, build_sut
from .wire import decode, dumps_wire, encode
from .zwave.registry import load_full_registry

_MODES = {mode.name.lower(): mode for mode in Mode}

#: The JobSpec fields a command's options of the same name set.
_SPEC_OPTIONS = ("device", "mode", "seed", "trials", "hours", "scheduler")


def _add_device(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--device",
        default="D1",
        choices=CONTROLLER_IDS,
        help="Table II controller to target (default D1)",
    )


def _positive_finite(text: str) -> float:
    """Type of every simulated duration (``--hours``, ``--seconds``, ...).

    A run lasts until the simulated clock passes its duration, so NaN or
    infinity would never end.
    """
    try:
        value = float(text)
    except ValueError:
        value = float("nan")
    # The comparison is false for NaN; infinity fails the finite bound.
    if not 0 < value < float("inf"):
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    _add_device(parser)
    parser.add_argument("--seed", type=int, default=0, help="deterministic seed")


def _add_workers(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        help="shard independent campaigns over N worker processes "
        "(0 or less = one per CPU core; results are identical to --workers 1)",
    )


def _add_metrics_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--metrics-out",
        help="write the merged observability metrics (schema-v1 JSON) here",
    )


def _add_scheduler(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--scheduler",
        choices=SCHEDULERS,
        default="static",
        help="PSM window scheduler: 'static' walks the priority queue with "
        "fixed C_T windows (the paper's design); 'coverage' assigns energy "
        "adaptively from the obs coverage bitmap (repro.core.scheduler). "
        "Deterministic either way: same (device, mode, seed, scheduler) "
        "gives the same bytes, serial or --workers N.",
    )


def _add_fault_plan(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--fault-plan",
        help="run under deterministic fault injection: a stock plan name "
        "(canonical, lossy, flaky) or a fault-plan JSON file",
    )


def _names(text: Optional[str]) -> tuple:
    """The names of a comma-separated option value, in order."""
    return tuple(name.strip() for name in (text or "").split(",") if name.strip())


def _job_spec(args: argparse.Namespace, fault_plan: Optional[str]) -> JobSpec:
    """The :class:`JobSpec` a command's options name; JobSpec's defaults fill
    the rest.  ``--devices`` is sorted and de-duplicated (one computation,
    one job id) and its first device is the job's."""
    fields = {name: getattr(args, name) for name in _SPEC_OPTIONS if hasattr(args, name)}
    devices = tuple(sorted(set(_names(getattr(args, "devices", None)))))
    if devices:
        fields["device"] = devices[0]
    flows = _names(getattr(args, "flows", None))
    flows = () if flows == ("all",) else flows
    return JobSpec(kind=args.kind, fault_plan=fault_plan, flows=flows, devices=devices, **fields)


def _run_document(args: argparse.Namespace) -> dict:
    """Run the command's job here at ``--workers`` processes and return the
    document the service would serve.  A fault-plan value that is not a
    stock name but names an existing file is read here as a plan and
    passed beside the spec; any other value rides in the spec, so a
    misspelled stock name is refused as ``POST /jobs`` refuses it.  The
    spec is checked as ``POST /jobs`` checks it before any unit runs."""
    import os.path

    from .faults.plan import STOCK_PLANS, load_plan
    from .serve.protocol import validate_spec
    from .serve.results import direct_document

    ref, plan = getattr(args, "fault_plan", None), None
    if ref and ref not in STOCK_PLANS and os.path.isfile(ref):
        ref, plan = None, load_plan(ref)
    spec = _job_spec(args, ref or None)
    validate_spec(spec, plan)
    return direct_document(spec, workers=args.workers, fault_plan=plan)


def _print_document(args: argparse.Namespace, doc: dict) -> None:
    """Print a document's table and write its metrics to ``--metrics-out``."""
    print(doc["render"])
    if args.metrics_out:
        write_document(doc["metrics"], args.metrics_out)
        print(f"metrics written to {args.metrics_out}")


def cmd_scan(args: argparse.Namespace) -> int:
    """Phase 1: fingerprint the target and print the network profile."""
    sut = build_sut(args.device, seed=args.seed)
    props = fingerprint(sut.dongle, sut.clock)
    print(f"device             : {args.device} ({sut.profile.brand} {sut.profile.model})")
    print(f"home id            : {props.home_id:08X}")
    print(f"controller node id : 0x{props.controller_node_id:02X}")
    print(f"observed nodes     : {sorted(props.observed_node_ids)}")
    print(f"listed CMDCLs ({props.known_count}) : {[hex(c) for c in props.listed_cmdcls]}")
    return 0


def cmd_discover(args: argparse.Namespace) -> int:
    """Phase 2: discover hidden command classes and print them."""
    sut = build_sut(args.device, seed=args.seed)
    props = fingerprint(sut.dongle, sut.clock)
    props = discover_unknown_properties(sut.dongle, sut.clock, props)
    print(f"known CMDCLs   : {props.known_count}")
    print(f"unknown CMDCLs : {props.unknown_count}")
    print(f"  spec-inferred: {[hex(c) for c in props.validated_unknown]}")
    print(f"  proprietary  : {[hex(c) for c in props.proprietary]}")
    print(f"fuzzing set    : {len(props.all_cmdcls)} CMDCLs")
    return 0


def cmd_fuzz(args: argparse.Namespace) -> int:
    """Phase 3: run one fuzzing campaign and print the findings."""
    mode = _MODES[args.mode]
    result = run_campaign(
        device=args.device,
        mode=mode,
        duration=args.hours * HOUR,
        seed=args.seed,
    )
    print(f"mode                : {mode.value}")
    print(f"packets sent        : {result.fuzz.packets_sent}")
    print(f"CMDCL / CMD coverage: {result.fuzz.cmdcl_coverage} / {result.fuzz.cmd_coverage}")
    print(f"detections (w/ dup) : {len(result.fuzz.detections)}")
    print(f"unique bugs         : {result.unique_vulnerabilities}")
    for t, pkt, bug_id in result.discovery_timeline():
        label = f"bug #{bug_id:02d}" if bug_id else "unmatched"
        print(f"  t={t:8.1f}s  packet={pkt:6d}  {label}")
    if args.log:
        result.fuzz.bug_log.save(args.log)
        print(f"bug log saved to {args.log}")
    if args.json:
        import json

        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(result.to_dict(), handle, indent=2)
        print(f"campaign summary saved to {args.json}")
    return 0


def cmd_ablation(args: argparse.Namespace) -> int:
    """Run the Table VI ablation (full vs beta vs gamma).

    With ``--scheduler coverage`` a fourth arm runs: FULL mode under the
    coverage-guided scheduler, so the table compares frames-to-first-
    zero-day between static and adaptive scheduling.
    """
    _print_document(args, _run_document(args))
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    """Run the Table V comparison (ZCover vs VFuzz)."""
    try:
        doc = _run_document(args)
    except SpecError:
        raise  # a usage error, exit 2
    except CampaignError as exc:  # a unit exhausted its attempts
        print(exc, file=sys.stderr)
        return 1
    _print_document(args, doc)
    return 0


def cmd_table(args: argparse.Namespace) -> int:
    """Print a static paper table."""
    if args.which == 2:
        print(render_table2())
    elif args.which == 3:
        print(render_table3())
    elif args.which == 5:
        print("Run `zcover compare` to regenerate Table V from measurements.")
    else:
        print("Run the matching benchmark to regenerate this table.")
    return 0


def cmd_figure(args: argparse.Namespace) -> int:
    """Render a paper figure as text."""
    if args.which == 5:
        print(render_figure5(load_full_registry()))
    elif args.which == 12:
        result = run_campaign(
            device=args.device, mode=Mode.FULL, duration=args.hours * HOUR, seed=args.seed
        )
        print(render_figure12(result))
    else:
        print("Only figures 5 and 12 are renderable from the CLI.")
    return 0


def cmd_sniff(args: argparse.Namespace) -> int:
    """Capture traffic, dissect it, optionally save a trace."""
    sut = build_sut(args.device, seed=args.seed)
    sut.dongle.clear_captures()
    sut.clock.advance(args.seconds)
    captures = sut.dongle.captures()
    if args.out:
        count = save_trace(captures, args.out)
        print(f"saved {count} frames to {args.out}")
    records = [TraceRecord.from_capture(c) for c in captures[: args.limit]]
    print(dissect_trace(records))
    return 0


def cmd_replay(args: argparse.Namespace) -> int:
    """Dissect a previously saved trace file."""
    records = load_trace(args.trace)
    print(dissect_trace(records[: args.limit]))
    return 0


def cmd_triage(args: argparse.Namespace) -> int:
    """Verify, deduplicate and minimise a saved bug log."""
    log = BugLog.load(args.log)
    triage = CrashTriage(device=args.device, seed=args.seed)
    print(render_triage_report(triage.triage(log)))
    return 0


def cmd_ids(args: argparse.Namespace) -> int:
    """Train the ZMAD-style IDS on benign traffic, replay attacks."""
    from .analysis.ids import ZWaveIDS
    from .simulator.vulnerabilities import ZERO_DAYS
    from .zwave.frame import ZWaveFrame

    sut = build_sut(args.device, seed=args.seed)
    ids = ZWaveIDS(sut.profile.home_id)
    sut.dongle.clear_captures()
    sut.clock.advance(args.train_seconds)
    training = [
        (c.timestamp, c.frame)
        for c in sut.dongle.drain_captures()
        if c.frame is not None
    ]
    model = ids.train(training)
    print(f"trained on {len(training)} frames; "
          f"{len(model.known_cmdcls)} classes, "
          f"{len(model.transitions)} sequence bigrams")
    attacks = {
        7: bytes([0x5A, 0x01]), 3: bytes([0x01, 0x0D, 0x02, 0x03]),
        10: bytes([0x86, 0x13, 0x00]), 6: bytes([0x9F, 0x01]),
    }
    detected = 0
    for bug in ZERO_DAYS:
        payload = attacks.get(bug.bug_id)
        if payload is None:
            continue
        frame = ZWaveFrame(
            home_id=sut.profile.home_id, src=0x0F, dst=1, payload=payload
        )
        alerts = ids.inspect(sut.clock.now, frame)
        detected += bool(alerts)
        kinds = ", ".join(sorted({a.kind.value for a in alerts})) or "missed"
        print(f"bug #{bug.bug_id:02d}: {kinds}")
    print(f"detected {detected}/{len(attacks)} sampled attacks")
    return 0


def cmd_report(args: argparse.Namespace) -> int:
    """Run a campaign and write a markdown report (and SVG)."""
    from .analysis.plot import figure12_svg, save_svg
    from .analysis.summary import campaign_report

    result = run_campaign(
        device=args.device,
        mode=_MODES[args.mode],
        duration=args.hours * HOUR,
        seed=args.seed,
    )
    report = campaign_report(result)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(report + "\n")
        print(f"report written to {args.out}")
    else:
        print(report)
    if args.svg:
        save_svg(figure12_svg(result), args.svg)
        print(f"figure written to {args.svg}")
    return 0


def cmd_lint(args: argparse.Namespace) -> int:
    """Run the repo's own static-analysis pass (see repro.lint)."""
    import json
    from pathlib import Path

    from .lint import run_lint
    from .lint.runner import default_analyzers
    from .obs.export import canonical_dumps

    root = Path(args.root) if args.root else None
    if args.rules:
        for analyzer in default_analyzers():
            for rule, description in sorted(analyzer.rules.items()):
                print(f"{rule}  [{analyzer.name}]  {description}")
        return 0
    committed = None
    if args.check_manifest:
        # A missing or malformed manifest fails before the lint pass runs.
        from .lint.flow.purity import load_manifest

        committed = load_manifest(Path(args.check_manifest))
    report = run_lint(root=root)
    if args.format == "json":
        rendered = json.dumps(report.to_document(), indent=2)
    elif args.format == "sarif":
        rendered = report.render_sarif().rstrip("\n")
    else:
        rendered = report.render()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"lint report written to {args.out}")
    else:
        print(rendered)

    if args.write_manifest:
        Path(args.write_manifest).write_text(
            canonical_dumps(report.manifest), encoding="utf-8"
        )
        print(f"purity manifest written to {args.write_manifest}")
    elif committed is not None:
        from .lint.flow.purity import diff_manifests

        drift = diff_manifests(committed, report.manifest)
        if drift:
            print(f"purity manifest drift against {args.check_manifest}:")
            for line in drift:
                print(f"  {line}")
            return 2
        print(f"purity manifest matches {args.check_manifest}")

    if args.strict:
        return report.strict_exit_code()
    return report.exit_code


def cmd_trials(args: argparse.Namespace) -> int:
    """Run repeated trials and print aggregate statistics."""
    doc = _run_document(args)
    _print_document(args, doc)
    return 1 if doc["failures"] else 0


def cmd_chaos(args: argparse.Namespace) -> int:
    """Resilience audit: repeated trials under a fault plan.

    The same plan and seed produce a byte-identical report (and metrics
    document) on every run, serial or ``--workers N`` — that is the
    property this command exists to demonstrate and CI pins.
    """
    from .faults.report import render_chaos_text
    from .obs.export import canonical_dumps

    doc = _run_document(args)["chaos"]
    if args.format == "json":
        rendering = canonical_dumps(doc)
    else:
        rendering = render_chaos_text(doc) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendering)
        print(f"chaos report written to {args.out}")
    else:
        sys.stdout.write(rendering)
    if args.metrics_out:
        write_document(doc["metrics"], args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 1 if doc["failures"] else 0


def cmd_sessions(args: argparse.Namespace) -> int:
    """Stateful session fuzzing of the multi-frame protocol flows.

    Drives seeded mutated frame *sequences* (reorder, drop, replay, field
    mutation, downgrade/early-commit injection) through the explicit state
    graphs of inclusion, exclusion, replication, S0/S2 key exchange and
    OTA transfer, and matches the planted session-level oracle.  Output is
    a pure function of (device, flows, plan, seed): serial and
    ``--workers N`` runs are byte-identical, which the CI flaky-detector
    diff pins via ``--json``.
    """
    from .core.resultio import session_from_wire
    from .core.session import planted_vuln_ids
    from .simulator.vulnerabilities import session_vuln_by_id

    doc = _run_document(args)
    result = session_from_wire(doc["session"])
    planted = planted_vuln_ids(result.flows)
    found = result.found_vuln_ids
    counters = result.metrics.counters if result.metrics else {}
    print(
        f"sessions {result.device} seed={result.seed}: "
        f"{len(result.flows)} flow(s), {result.total_trials} trials, "
        f"{len(found)}/{len(planted)} planted session bugs found"
    )
    for flow in result.flows:
        transitions = counters.get(f"session.transitions.{flow}", 0)
        windows = sum(
            1 for f, _trials, _reason in result.energy_trace if f == flow
        )
        print(
            f"  {flow:<12} trials={result.trials_by_flow.get(flow, 0):<3} "
            f"transitions={transitions:<3} windows={windows}"
        )
    for bug in result.bugs:
        vuln = session_vuln_by_id(bug.vuln_id)
        print(
            f"  [{bug.vuln_id}] {bug.flow} trial {bug.trial} "
            f"seq {bug.sequence_index} state={bug.state} — {vuln.name}"
        )
    missing = sorted(set(planted) - set(found))
    if missing:
        print(f"  MISSING planted bugs: {', '.join(missing)}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            handle.write(dumps_wire(doc["session"]) + "\n")
        print(f"wire result written to {args.json}")
    if args.metrics_out:
        write_document(doc["metrics"], args.metrics_out)
        print(f"metrics written to {args.metrics_out}")
    return 1 if missing else 0


def cmd_obs(args: argparse.Namespace) -> int:
    """Inspect observability metrics: run a campaign or read a document.

    With ``--in`` the document comes from a previous ``--metrics-out``;
    otherwise one campaign runs here and its snapshot is rendered.
    """
    if args.in_path:
        doc = load_document(args.in_path)
        tracer = None
    else:
        tracer = Tracer()
        result = run_campaign(
            device=args.device,
            mode=_MODES[args.mode],
            duration=args.hours * HOUR,
            seed=args.seed,
            tracer=tracer,
        )
        # Decoded exactly as ``--in`` decodes the file this run would write.
        doc = decode(
            MetricsDocument,
            snapshot_to_document(
                result.metrics,
                meta={
                    "kind": "campaign",
                    "device": args.device,
                    "mode": _MODES[args.mode].name,
                    "duration_s": args.hours * HOUR,
                    "seed": args.seed,
                },
            ),
            "metrics document",
        )
    if args.format == "json":
        import json

        rendered = json.dumps(encode(doc), sort_keys=True, indent=2)
    elif args.format == "prom":
        rendered = render_prometheus(doc)
    else:
        rendered = render_text(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(rendered + "\n")
        print(f"metrics written to {args.out}")
    else:
        print(rendered)
    if args.trace_out:
        if tracer is None:
            print("--trace-out ignored: --in documents carry no spans", file=sys.stderr)
        else:
            count = tracer.export_jsonl(args.trace_out)
            dropped = f" ({tracer.dropped} dropped)" if tracer.dropped else ""
            print(f"{count} spans written to {args.trace_out}{dropped}", file=sys.stderr)
    return 0


def cmd_perf(args: argparse.Namespace) -> int:
    """Run the hot-path microbenchmarks and gate against a baseline.

    Emits the canonical ``BENCH_core.json`` (schema-v1).  With
    ``--baseline`` the run is compared under the tolerance gate and any
    regression makes the command exit non-zero.
    """
    from .perf import (
        PerfError,
        compare,
        dumps_document,
        load_document as load_perf_document,
        render_text as render_perf_text,
        report_to_document,
        run_bench,
        validate_document,
        write_document as write_perf_document,
    )

    if args.update_baseline and not args.baseline:
        raise PerfError("--update-baseline requires --baseline")
    # A bad baseline fails before the workloads run, not after.
    baseline = None
    if args.baseline and not args.update_baseline:
        baseline = load_perf_document(args.baseline)
    names = list(_names(args.workloads)) if args.workloads else None
    report = run_bench(names=names, fast=args.fast, repeats=args.repeats)
    doc = report_to_document(report)
    current = validate_document(doc)
    if args.format == "json":
        sys.stdout.write(dumps_document(doc))
    else:
        print(render_perf_text(current))
    if args.out:
        write_perf_document(doc, args.out)
        print(f"bench document written to {args.out}")
    if args.update_baseline:
        write_perf_document(doc, args.baseline)
        print(f"baseline updated at {args.baseline}")
        return 0
    if baseline is not None:
        regressions = compare(current, baseline, tolerance=args.tolerance, only=names)
        if regressions:
            print(f"\n{len(regressions)} regression(s) vs {args.baseline}:")
            for reg in regressions:
                print(f"  [{reg.kind}] {reg.name}: {reg.detail}")
            return 1
        print(f"\nno regressions vs {args.baseline} "
              f"(tolerance {args.tolerance * 100.0:.0f}%)")
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    """Run the long-lived campaign job service until SIGTERM/SIGINT.

    Clients submit wire-v6 job specs over HTTP (``zcover submit``); the
    service shards each job across a persistent worker pool and serves
    canonical result documents byte-identical to in-process runs.  With
    ``--checkpoint``, completed units are written ahead to disk and a
    restarted service resumes unfinished jobs mid-trial-set.
    """
    from .serve.service import serve_forever

    serve_forever(
        host=args.host,
        port=args.port,
        workers=args.workers,
        checkpoint_path=args.checkpoint,
    )
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    """Submit a job spec to a running service (or run the oracle).

    ``--direct`` skips the service entirely and runs the same spec
    in-process, serially, emitting the oracle document — the bytes a
    service result must equal.  The CI smoke job diffs the two.
    """
    from .serve.protocol import validate_spec

    spec = _job_spec(args, args.fault_plan)
    validate_spec(spec)
    if args.direct:
        from .serve.results import direct_document, dumps_result_document

        text = dumps_result_document(direct_document(spec))
        if args.out:
            with open(args.out, "w", encoding="utf-8") as handle:
                handle.write(text)
            print(f"oracle document written to {args.out}")
        else:
            sys.stdout.write(text)
        return 0

    from .serve.client import ServeClient
    from .serve.protocol import JOB_DONE

    client = ServeClient(host=args.host, port=args.port)
    status = client.submit(spec)
    print(f"job {status.job_id}: {status.state} (sequence {status.sequence})")
    if not (args.wait or args.out):
        return 0
    final = client.wait(status.job_id, timeout=args.timeout)
    if final.state != JOB_DONE:
        print(f"submit: job {final.job_id} {final.state}: {final.error}",
              file=sys.stderr)
        return 1
    payload = client.result_bytes(final.job_id)
    if args.out:
        with open(args.out, "wb") as handle:
            handle.write(payload)
        print(f"result document written to {args.out}")
    else:
        sys.stdout.buffer.write(payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser with every subcommand."""
    parser = argparse.ArgumentParser(
        prog="zcover",
        description="ZCover reproduction: fuzz simulated Z-Wave controllers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    scan = sub.add_parser("scan", help="phase 1: passive + active fingerprinting")
    _add_common(scan)
    scan.set_defaults(func=cmd_scan)

    discover = sub.add_parser("discover", help="phase 2: unknown CMDCL discovery")
    _add_common(discover)
    discover.set_defaults(func=cmd_discover)

    fuzz = sub.add_parser("fuzz", help="phase 3: run a fuzzing campaign")
    _add_common(fuzz)
    fuzz.add_argument("--hours", type=_positive_finite, default=1.0, help="simulated hours")
    fuzz.add_argument("--mode", choices=sorted(_MODES), default="full")
    fuzz.add_argument("--log", help="save the bug log (JSON lines) here")
    fuzz.add_argument("--json", help="save the machine-readable summary here")
    fuzz.set_defaults(func=cmd_fuzz)

    ablation = sub.add_parser(
        "ablation",
        help="Table VI: full vs beta vs gamma "
        "(--scheduler coverage adds a coverage-guided fourth arm)",
    )
    _add_common(ablation)
    ablation.add_argument("--hours", type=_positive_finite, default=1.0)
    _add_workers(ablation)
    _add_metrics_out(ablation)
    _add_fault_plan(ablation)
    _add_scheduler(ablation)
    ablation.set_defaults(func=cmd_ablation, kind="ablation")

    compare = sub.add_parser("compare", help="Table V: ZCover vs VFuzz")
    compare.add_argument("--devices", default="D1,D2,D3,D4,D5")
    compare.add_argument("--hours", type=_positive_finite, default=6.0)
    compare.add_argument("--seed", type=int, default=0)
    _add_workers(compare)
    _add_metrics_out(compare)
    _add_fault_plan(compare)
    _add_scheduler(compare)
    compare.set_defaults(func=cmd_compare, kind="compare")

    table = sub.add_parser("table", help="print a static paper table")
    table.add_argument("--which", type=int, default=2, choices=(2, 3, 5))
    table.set_defaults(func=cmd_table)

    figure = sub.add_parser("figure", help="render a paper figure")
    _add_common(figure)
    figure.add_argument("--which", type=int, default=5, choices=(5, 12))
    figure.add_argument("--hours", type=_positive_finite, default=1.0)
    figure.set_defaults(func=cmd_figure)

    sniff = sub.add_parser("sniff", help="capture and dissect network traffic")
    _add_common(sniff)
    sniff.add_argument("--seconds", type=_positive_finite, default=120.0)
    sniff.add_argument("--out", help="save the trace (JSON lines) here")
    sniff.add_argument("--limit", type=int, default=40, help="lines to print")
    sniff.set_defaults(func=cmd_sniff)

    replay = sub.add_parser("replay", help="dissect a saved trace file")
    replay.add_argument("trace", help="trace file written by `zcover sniff`")
    replay.add_argument("--limit", type=int, default=100)
    replay.set_defaults(func=cmd_replay)

    triage = sub.add_parser("triage", help="verify + dedup + minimise a bug log")
    _add_common(triage)
    triage.add_argument("--log", required=True, help="bug log from `zcover fuzz`")
    triage.set_defaults(func=cmd_triage)

    ids = sub.add_parser("ids", help="train the ZMAD-style IDS, replay attacks")
    _add_common(ids)
    ids.add_argument("--train-seconds", type=_positive_finite, default=7200.0)
    ids.set_defaults(func=cmd_ids)

    report = sub.add_parser("report", help="run a campaign and write a report")
    _add_common(report)
    report.add_argument("--mode", choices=sorted(_MODES), default="full")
    report.add_argument("--hours", type=_positive_finite, default=1.0)
    report.add_argument("--out", help="markdown report path (default: stdout)")
    report.add_argument("--svg", help="also write the Figure 12 panel here")
    report.set_defaults(func=cmd_report)

    trials = sub.add_parser("trials", help="repeated trials with statistics")
    _add_common(trials)
    trials.add_argument("--mode", choices=sorted(_MODES), default="full")
    trials.add_argument("--trials", type=int, default=5)
    trials.add_argument("--hours", type=_positive_finite, default=1.0)
    _add_workers(trials)
    _add_metrics_out(trials)
    _add_fault_plan(trials)
    _add_scheduler(trials)
    trials.set_defaults(func=cmd_trials, kind="trials")

    chaos = sub.add_parser(
        "chaos", help="resilience audit: campaigns under a fault plan"
    )
    _add_common(chaos)
    chaos.add_argument(
        "--plan",
        dest="fault_plan",
        metavar="PLAN",
        default="canonical",
        help="stock plan name (canonical, lossy, flaky) or a plan JSON file",
    )
    chaos.add_argument("--mode", choices=sorted(_MODES), default="full")
    chaos.add_argument("--trials", type=int, default=2)
    chaos.add_argument("--hours", type=_positive_finite, default=0.25)
    chaos.add_argument("--format", choices=("text", "json"), default="text")
    chaos.add_argument("--out", help="write the report here (default: stdout)")
    _add_workers(chaos)
    _add_metrics_out(chaos)
    chaos.set_defaults(func=cmd_chaos, kind="chaos")

    sessions = sub.add_parser(
        "sessions",
        help="stateful session fuzzing: inclusion, S0/S2 handshake, OTA",
    )
    _add_common(sessions)
    sessions.add_argument(
        "--flows",
        default="all",
        help="comma-separated flow subset (inclusion, exclusion, replication, "
        "s0, s2, ota) or 'all' (default)",
    )
    sessions.add_argument(
        "--trials",
        type=int,
        default=None,
        help="trials per flow (default: the stock plan's 24; the directed "
        "probe corpus always runs first)",
    )
    _add_workers(sessions)
    sessions.add_argument(
        "--json",
        help="write the canonical wire-v5 result JSON here (byte-identical "
        "serial vs --workers N; the CI determinism diff reads this)",
    )
    _add_metrics_out(sessions)
    sessions.set_defaults(func=cmd_sessions, kind="sessions")

    obs = sub.add_parser("obs", help="observability: metrics + tracing spans")
    _add_common(obs)
    obs.add_argument("--mode", choices=sorted(_MODES), default="full")
    obs.add_argument("--hours", type=_positive_finite, default=1.0)
    obs.add_argument(
        "--in",
        dest="in_path",
        help="render an existing --metrics-out document instead of running",
    )
    obs.add_argument("--format", choices=("text", "json", "prom"), default="text")
    obs.add_argument("--out", help="write the rendering here (default: stdout)")
    obs.add_argument("--trace-out", help="export the span ring as JSON lines here")
    obs.set_defaults(func=cmd_obs)

    perf = sub.add_parser(
        "perf", help="hot-path microbenchmarks with a regression gate"
    )
    perf.add_argument(
        "--fast", action="store_true", help="smaller workloads (CI and smoke tests)"
    )
    perf.add_argument(
        "--workloads",
        help="comma-separated workload subset (calibration always included)",
    )
    perf.add_argument(
        "--repeats", type=int, default=3, help="repetitions per workload; best-of wins"
    )
    perf.add_argument("--format", choices=("text", "json"), default="text")
    perf.add_argument("--out", help="write BENCH_core.json here")
    perf.add_argument(
        "--baseline", help="compare against this committed BENCH_core.json"
    )
    perf.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional growth of calibration-normalised cost (0.25 = +25%%)",
    )
    perf.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite --baseline with this run instead of gating",
    )
    perf.set_defaults(func=cmd_perf)

    lint = sub.add_parser("lint", help="static analysis of the repro source tree")
    lint.add_argument("--format", choices=("text", "json", "sarif"), default="text")
    lint.add_argument("--root", help="lint this tree instead of the installed package")
    lint.add_argument("--rules", action="store_true", help="list every rule and exit")
    lint.add_argument("--out", help="write the report here instead of stdout")
    lint.add_argument(
        "--strict",
        action="store_true",
        help="exit non-zero on warnings too, not just errors",
    )
    manifest = lint.add_mutually_exclusive_group()
    manifest.add_argument(
        "--write-manifest",
        metavar="PATH",
        help="write the purity manifest (canonical JSON) to PATH",
    )
    manifest.add_argument(
        "--check-manifest",
        metavar="PATH",
        help="fail (exit 2) if the purity manifest drifted from PATH",
    )
    lint.set_defaults(func=cmd_lint)

    serve = sub.add_parser(
        "serve", help="run the long-lived campaign job service (HTTP/JSON)"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=8377, help="bind port (0 = ephemeral)"
    )
    _add_workers(serve)
    serve.add_argument(
        "--checkpoint",
        help="write-ahead checkpoint file: completed units are logged here "
        "and a restarted service resumes unfinished jobs mid-trial-set",
    )
    serve.set_defaults(func=cmd_serve)

    submit = sub.add_parser(
        "submit", help="submit a job to a running service (or --direct oracle)"
    )
    submit.add_argument("--host", default="127.0.0.1", help="service address")
    submit.add_argument("--port", type=int, default=8377, help="service port")
    submit.add_argument(
        "--kind",
        choices=JOB_KINDS,
        default="trials",
        help="job kind (default trials)",
    )
    _add_common(submit)
    submit.add_argument("--mode", choices=tuple(_MODES), default="full")
    submit.add_argument(
        "--trials",
        type=int,
        default=None,
        help="trial count (kind-specific stock default when omitted)",
    )
    submit.add_argument(
        "--hours", type=_positive_finite, default=1.0, help="simulated hours per campaign"
    )
    _add_scheduler(submit)
    submit.add_argument(
        "--fault-plan",
        help="stock fault plan name (canonical, lossy, flaky); required for "
        "chaos jobs, optional for trials",
    )
    submit.add_argument(
        "--flows", help="comma-separated session flows (sessions jobs only)"
    )
    submit.add_argument(
        "--devices", help="comma-separated devices (compare jobs only; sorted here)"
    )
    submit.add_argument(
        "--wait", action="store_true", help="poll until the job is terminal"
    )
    submit.add_argument(
        "--timeout",
        type=float,
        default=600.0,
        help="wall-clock deadline for --wait/--out polling (seconds)",
    )
    submit.add_argument(
        "--out", help="write the result document here (implies --wait)"
    )
    submit.add_argument(
        "--direct",
        action="store_true",
        help="run the spec in-process serially and emit the oracle document "
        "(no service involved) — the bytes a service result must equal",
    )
    submit.set_defaults(func=cmd_submit)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ReproError, OSError) as exc:
        # Bad input (a malformed document, spec or plan, an unreadable
        # path, an unreachable service) is one line, never a traceback.
        print(f"zcover {args.command}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
