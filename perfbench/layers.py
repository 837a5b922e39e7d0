"""Which names the traced run wraps, and how spans reduce to layer metrics.

Each ``install_*`` function wraps the public entry points of the
layers one workload crosses, at the place their callers look them up:
a module global (``repro.core.campaign.fingerprint``) or a class
attribute for a method (``SimClock.advance_to``).  ``SpanLog.unwrap``
puts them all back.  The ``*_metrics`` functions turn the spans and
counts of a traced run into the per-layer metrics of BENCHMARK.json.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Dict, List

from measure import covered_length
from spans import SpanLog

now = time.perf_counter

#: Per-layer metrics, in BENCHMARK.json order: name -> unit.  A layer
#: the workload does not cross reads 0.
PER_LAYER: Dict[str, str] = {
    "clock.fuzz_s": "s/item",
    "clock.oracle_s": "s/item",
    "clock.fingerprint_s": "s/item",
    "clock.discovery_s": "s/item",
    "clock.verify_s": "s/item",
    "clock.advances_per_packet": "count",
    "fingerprint.s": "s/item",
    "discovery.s": "s/item",
    "testbed.build_s": "s/item",
    "tester.verify_s": "s/item",
    "fuzzer.s": "s/item",
    "fuzzer.self_s": "s/item",
    "mutation.s": "s/item",
    "oracle.ping_s": "s/item",
    "oracle.memory_s": "s/item",
    "oracle.host_s": "s/item",
    "recovery.s": "s/item",
    "oracle.pings_per_packet": "count",
    "oracle.ping_loss_ratio": "ratio",
    "fuzzer.detection_ratio": "ratio",
    "fuzzer.duplicate_ratio": "ratio",
    "tester.unique_ratio": "ratio",
    "controller.frames_rx_per_packet": "count",
    "controller.frames_tx_per_packet": "count",
    "controller.acks_tx_per_packet": "count",
    "campaign.packet_us.full": "us",
    "campaign.packet_us.beta": "us",
    "campaign.packet_us.gamma": "us",
    "campaign.packet_us.coverage": "us",
    "campaign.unattributed_s": "s/item",
    "campaign.attributed_ratio": "ratio",
    "session.schedule_s": "s/item",
    "session.apply_s": "s/item",
    "session.evaluate_s": "s/item",
    "session.flow_self_s": "s/item",
    "session.unit_s": "s/item",
    "session.events_per_trial": "count",
    "session.novel_ratio": "ratio",
    "serve.http_submit_s": "s/call",
    "serve.http_status_s": "s/call",
    "serve.http_result_s": "s/call",
    "serve.queue_wait_s": "s/job",
    "serve.unit_s": "s/unit",
    "serve.rehydrate_s": "s/unit",
    "serve.document_s": "s/job",
    "serve.wal_s": "s/call",
    "serve.resubmit_s": "s/job",
    "serve.observe_lag_s": "s/job",
    "serve.retry_ratio": "ratio",
    "serve.overhead_ratio": "ratio",
    "serve.worker_rss_mb": "MB",
    "setup.import_s": "s",
    "registry.load_s": "s",
    "serve.boot_s": "s",
    "trace.overhead_ratio": "ratio",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- campaign ------------------------------------------------------------------


def install_campaign(log: SpanLog, counts: Counter) -> None:
    import repro.core.campaign as campaign
    import repro.core.tester as tester
    from repro.core.fuzzer import FuzzingEngine
    from repro.core.monitor import LivenessMonitor, SutObserver
    from repro.radio.clock import SimClock

    log.wrap(campaign, "build_sut", "testbed.build")
    log.wrap(tester, "build_sut", "testbed.build")
    log.wrap(campaign, "fingerprint", "fingerprint")
    log.wrap(campaign, "discover_unknown_properties", "discovery")

    verify_findings = campaign.verify_findings

    def traced_verify(device, seed, fuzz):
        span = log.open("tester.verify")
        try:
            unique = verify_findings(device, seed, fuzz)
        finally:
            log.close(span)
        counts["verify_groups"] += len(fuzz.bug_log.coarse_groups())
        counts["verify_unique"] += len(unique)
        return unique

    log.patch(campaign, "verify_findings", traced_verify)

    engine_run = FuzzingEngine.__dict__["run"]

    def streams_timed(streams):
        # The mutation layer: every next() on the stream queue and on
        # each stream's test-case generator.
        for label, cases, window in log.timed_iter(streams, "mutation"):
            yield label, log.timed_iter(cases, "mutation"), window

    def traced_run(self, streams, duration):
        span = log.open("fuzzer")
        try:
            result = engine_run(self, streams_timed(streams), duration)
        finally:
            log.close(span)
        counts["packets"] += result.packets_sent
        counts["detections"] += len(result.detections)
        counts["groups"] += len(result.bug_log.coarse_groups())
        counts["pings_sent"] += self.monitor.pings_sent
        counts["pings_lost"] += self.monitor.pings_lost
        return result

    log.patch(FuzzingEngine, "run", traced_run)

    def in_fuzzer() -> bool:
        return log.inside("fuzzer")

    log.wrap(LivenessMonitor, "ping", "oracle.ping", when=in_fuzzer)
    log.wrap(SutObserver, "check_memory", "oracle.memory", when=in_fuzzer)
    log.wrap(SutObserver, "check_host", "oracle.host", when=in_fuzzer)
    for name in ("restore_memory", "restart_host", "power_cycle"):
        log.wrap(SutObserver, name, "recovery", when=in_fuzzer)
    log.wrap(SimClock, "advance_to", log.clock_phase)


def campaign_metrics(table: Dict[str, list], counts: Counter, facts: List[dict]) -> Dict[str, float]:
    items = len(facts) or 1

    def self_s(name):
        return table.get(name, [0, 0.0, 0.0])[1] / items

    def incl_s(name):
        return table.get(name, [0, 0.0, 0.0])[2] / items

    def calls(name):
        return table.get(name, [0, 0.0, 0.0])[0]

    packets = counts["packets"]
    metrics = {
        "clock.fuzz_s": self_s("clock.fuzz"),
        "clock.oracle_s": self_s("clock.oracle"),
        "clock.fingerprint_s": self_s("clock.fingerprint"),
        "clock.discovery_s": self_s("clock.discovery"),
        "clock.verify_s": self_s("clock.verify"),
        "clock.advances_per_packet": _ratio(calls("clock.fuzz") + calls("clock.oracle"), packets),
        "fingerprint.s": incl_s("fingerprint"),
        "discovery.s": incl_s("discovery"),
        "testbed.build_s": incl_s("testbed.build"),
        "tester.verify_s": incl_s("tester.verify"),
        "fuzzer.s": incl_s("fuzzer"),
        "fuzzer.self_s": self_s("fuzzer"),
        "mutation.s": self_s("mutation"),
        "oracle.ping_s": self_s("oracle.ping"),
        "oracle.memory_s": self_s("oracle.memory"),
        "oracle.host_s": self_s("oracle.host"),
        "recovery.s": self_s("recovery"),
        "oracle.pings_per_packet": _ratio(counts["pings_sent"], packets),
        "oracle.ping_loss_ratio": _ratio(counts["pings_lost"], counts["pings_sent"]),
        "fuzzer.detection_ratio": _ratio(counts["detections"], packets),
        "fuzzer.duplicate_ratio": _ratio(
            counts["detections"] - counts["groups"], counts["detections"]
        ),
        "tester.unique_ratio": _ratio(counts["verify_unique"], counts["verify_groups"]),
    }
    for key in ("frames_rx", "frames_tx", "acks_tx"):
        total = sum(f["counters"].get(f"controller.{key}", 0) for f in facts)
        metrics[f"controller.{key}_per_packet"] = _ratio(total, packets)
    for arm in ("full", "beta", "gamma", "coverage"):
        chosen = [f for f in facts if f["arm"] == arm]
        metrics[f"campaign.packet_us.{arm}"] = _ratio(
            sum(f["plain_s"] for f in chosen) * 1e6, sum(f["packets"] for f in chosen)
        )
    item = table.get("campaign", [0, 0.0, 0.0])
    metrics["campaign.unattributed_s"] = item[1] / items
    metrics["campaign.attributed_ratio"] = 1.0 - _ratio(item[1], item[2])
    return metrics


def campaign_facts(item, result) -> dict:
    arm = "coverage" if item.scheduler == "coverage" else item.mode.lower()
    counters = result.metrics.counters if result.metrics is not None else {}
    return {"arm": arm, "packets": result.fuzz.packets_sent, "counters": dict(counters)}


# -- sessions ------------------------------------------------------------------


def install_sessions(log: SpanLog, counts: Counter) -> None:
    import repro.core.session as session

    log.wrap(session, "run_session_flow", "session.flow")
    log.wrap(session.SessionSchedule, "trial_ops", "session.schedule")
    log.wrap(session.SessionSchedule, "havoc_ops", "session.schedule")
    log.wrap(session, "evaluate_trace", "session.evaluate")
    apply_ops = session.apply_ops

    def traced_apply(flow, ops):
        span = log.open("session.apply")
        try:
            events = apply_ops(flow, ops)
        finally:
            log.close(span)
        counts["trials"] += 1
        counts["events"] += len(events)
        return events

    log.patch(session, "apply_ops", traced_apply)


def session_metrics(table: Dict[str, list], counts: Counter, facts: List[dict]) -> Dict[str, float]:
    items = len(facts) or 1

    def self_s(name):
        return table.get(name, [0, 0.0, 0.0])[1] / items

    trials = sum(f["trials"] for f in facts)
    return {
        "session.schedule_s": self_s("session.schedule"),
        "session.apply_s": self_s("session.apply"),
        "session.evaluate_s": self_s("session.evaluate"),
        "session.flow_self_s": self_s("session.flow"),
        "session.unit_s": self_s("session.unit"),
        "session.events_per_trial": _ratio(counts["events"], counts["trials"]),
        "session.novel_ratio": _ratio(sum(f["novel"] for f in facts), trials),
    }


def session_facts(item, result) -> dict:
    counters = result.metrics.counters if result.metrics is not None else {}
    return {
        "trials": result.total_trials,
        "novel": counters.get("session.coverage_novel_trials", 0),
    }


# -- served --------------------------------------------------------------------


class ServedProbe:
    """Service-side timestamps the traced served run collects."""

    def __init__(self) -> None:
        self.submitted_at: Dict[str, float] = {}
        self.running_at: Dict[str, float] = {}
        self.done_at: Dict[str, float] = {}
        self.unit_submits = 0


def install_served(log: SpanLog, probe: ServedProbe) -> None:
    import repro.serve.service as service
    from repro.core.parallel import WorkerPool
    from repro.serve.checkpoint import CheckpointWriter
    from repro.serve.client import ServeClient
    from repro.serve.jobs import JobQueue, JobRecord

    log.wrap(ServeClient, "submit", "serve.http_submit")
    log.wrap(ServeClient, "status", "serve.http_status")
    log.wrap(ServeClient, "result_bytes", "serve.http_result")
    log.wrap(service, "rehydrate_unit_result", "serve.rehydrate")
    log.wrap(service, "document_from_outcomes", "serve.document")
    log.wrap(service, "dumps_result_document", "serve.document")
    log.wrap(CheckpointWriter, "append", "serve.wal")

    queue_submit = JobQueue.__dict__["submit"]

    def traced_submit(self, spec):
        start = now()
        record, created = queue_submit(self, spec)
        if created:
            probe.submitted_at[record.job_id] = start
        return record, created

    log.patch(JobQueue, "submit", traced_submit)

    advance = JobRecord.__dict__["advance"]

    def traced_advance(self, target):
        advance(self, target)
        at = now()
        job = self.job_id
        if target == "running":
            log.set_item(job)
            probe.running_at[job] = at
            if job in probe.submitted_at:
                log.interval("serve.queue_wait", probe.submitted_at[job], at, job)
        elif target in ("done", "failed"):
            probe.done_at[job] = at
            if job in probe.running_at:
                log.interval("serve.running", probe.running_at[job], at, job)

    log.patch(JobRecord, "advance", traced_advance)

    pool_submit = WorkerPool.__dict__["submit"]

    def traced_pool_submit(self, unit):
        start = now()
        item = log.current_item()
        future = pool_submit(self, unit)
        probe.unit_submits += 1
        future.add_done_callback(lambda _f: log.interval("serve.unit", start, now(), item))
        return future

    log.patch(WorkerPool, "submit", traced_pool_submit)


def served_metrics(
    log: SpanLog, table: Dict[str, list], probe: ServedProbe, facts: List[dict],
    units_completed: int, worker_rss_mb: float,
) -> Dict[str, float]:
    jobs = len(facts) or 1

    def per_call(name):
        count, _own, incl = table.get(name, [0, 0.0, 0.0])
        return incl / count if count else 0.0

    # A sessions job runs one unit per flow; they queue behind each other in
    # the one-worker pool, so a job's unit time is the union of its units.
    unit_intervals: Dict[str, list] = {}
    running: Dict[str, tuple] = {}
    for name, start, end, _parent, item in log.spans:
        if name == "serve.unit":
            unit_intervals.setdefault(item, []).append((start, end))
        elif name == "serve.running":
            running[item] = (start, end)
    busy = sum(
        covered_length(unit_intervals.get(job, ()), start, end)
        for job, (start, end) in running.items()
    )
    running_s = sum(end - start for start, end in running.values())
    lags = [f["observe_lag_s"] for f in facts if "observe_lag_s" in f]
    return {
        "serve.http_submit_s": per_call("serve.http_submit"),
        "serve.http_status_s": per_call("serve.http_status"),
        "serve.http_result_s": per_call("serve.http_result"),
        "serve.queue_wait_s": per_call("serve.queue_wait"),
        "serve.unit_s": per_call("serve.unit"),
        "serve.rehydrate_s": per_call("serve.rehydrate"),
        "serve.document_s": table.get("serve.document", [0, 0.0, 0.0])[2] / jobs,
        "serve.wal_s": per_call("serve.wal"),
        "serve.resubmit_s": per_call("serve.resubmit"),
        "serve.observe_lag_s": _ratio(sum(lags), len(lags)),
        "serve.retry_ratio": _ratio(probe.unit_submits - units_completed, units_completed),
        "serve.overhead_ratio": 1.0 - _ratio(busy, running_s),
        "serve.worker_rss_mb": worker_rss_mb,
    }


def process_hwm_mb(pid: int) -> float:
    """Peak resident set of process *pid* in MB (Linux ``VmHWM``)."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0
