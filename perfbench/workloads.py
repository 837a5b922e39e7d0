"""The three workloads: item generators, set-up, timed loops, traced loops.

Every workload draws its items from the workload seed alone, so every
run of one seed does the same items in the same order.  Load comes from
one thread.  See README.md for why each workload exists.
"""

from __future__ import annotations

import importlib
import itertools
import os
import random
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional

from checks import (
    Tally,
    campaign_problems,
    served_problems,
    session_problems,
    sha256_text,
)
from hostspeed import probe, scales
from spans import SpanLog

now = time.perf_counter

DEVICES = ("D1", "D2", "D3", "D4", "D5", "D6", "D7")

#: Items in one run.  Every run of a seed does exactly these items;
#: ``--seconds`` only caps a run on a slow host.  At least 100 items
#: keep ten samples beyond p90; counts are whole blocks (campaign: three
#: pairs of blocks of 21, sessions: eighteen blocks of 7, served: fifty blocks
#: of 3).
CAMPAIGN_ITEMS = 126
SESSION_ITEMS = 126
SERVED_JOBS = 150

#: Simulated fuzzing seconds per campaign item ("a few minutes").
CAMPAIGN_DURATION_S = 180.0
#: Session trials per flow in one ``run_sessions`` item (stock plan: 24).
#: Each block of seven items hands these budgets to its devices in seeded
#: order, 400 on average.  With one budget for all, every item would take
#: one of two times (the host's fast or slow phase) and a run's median
#: would jump between them; spread budgets let it move smoothly.
SESSION_TRIALS = (220, 280, 340, 400, 460, 520, 580)
#: Served job shapes, spread for the same reason: the hours of the one
#: campaign in a trials or chaos job (108-252 simulated seconds, 180 on
#: average) and the trials per flow of a sessions job (100 on average).
#: Every five blocks use each value once per kind, in seeded order.
SERVED_HOURS = (0.03, 0.04, 0.05, 0.06, 0.07)
SERVED_SESSION_TRIALS = (60, 80, 100, 120, 140)
#: Jobs the closed loop keeps outstanding, and its fixed poll interval.
SERVED_OUTSTANDING = 2
POLL_S = 0.02

#: Modules each workload imports during set-up.
IMPORTS = {
    "campaign": ("repro.core.campaign", "repro.core.resultio"),
    "sessions": ("repro.core.session", "repro.core.parallel", "repro.core.resultio"),
    "served": (
        "repro.serve.service",
        "repro.serve.client",
        "repro.serve.protocol",
        "repro.serve.results",
    ),
}


# -- item generators -----------------------------------------------------------


@dataclass(frozen=True)
class CampaignItem:
    device: str
    mode: str
    scheduler: str
    seed: int


@dataclass(frozen=True)
class SessionItem:
    device: str
    trials: int
    seed: int


def campaign_items(seed: int, stream: str = "campaign") -> Iterator[CampaignItem]:
    """Pairs of blocks of all 21 device × mode pairs, each in seeded order.

    In every block each device runs the coverage scheduler on exactly one
    of its FULL and BETA items: on FULL in one block of each pair and on
    BETA in the other.  Seeded four devices take FULL in the first block
    of a pair, the other three in the second, so every pair of blocks,
    and every block's position in it, has the same mix of arms.
    """
    rng = random.Random(f"perfbench.{stream}.{seed}")
    while True:
        first = set(rng.sample(DEVICES, 4))
        for full_coverage in (first, set(DEVICES) - first):
            block = [(d, m) for d in DEVICES for m in ("FULL", "BETA", "GAMMA")]
            rng.shuffle(block)
            for device, mode in block:
                covered = "FULL" if device in full_coverage else "BETA"
                scheduler = "coverage" if mode == covered else "static"
                yield CampaignItem(device, mode, scheduler, rng.randrange(2**31))


def session_items(seed: int, stream: str = "sessions") -> Iterator[SessionItem]:
    """Blocks of the seven devices, and of the trial budgets, in seeded order."""
    rng = random.Random(f"perfbench.{stream}.{seed}")
    while True:
        block = list(DEVICES)
        rng.shuffle(block)
        budgets = list(SESSION_TRIALS)
        rng.shuffle(budgets)
        for device, trials in zip(block, budgets):
            yield SessionItem(device, trials, rng.randrange(2**31))


def served_specs(seed: int):
    """Blocks of three jobs, one of each kind, as CI's serve-smoke job submits.

    The ``trials`` job of each block is the next campaign item of a
    seeded ``campaign_items`` stream (every device × mode pair once per 21
    blocks, same coverage-scheduler rule); the ``sessions`` and ``lossy``
    ``chaos`` jobs take their devices and seeds from seeded
    ``session_items`` streams.  Job sizes come from ``SERVED_HOURS`` and
    ``SERVED_SESSION_TRIALS``.  A spec whose job id was already drawn is
    skipped, so each first submission creates a job and each
    resubmission is a hit.
    """
    from repro.serve.protocol import JobSpec, job_id_for

    rng = random.Random(f"perfbench.served.{seed}")
    trials = campaign_items(seed, "served.trials")
    sessions = session_items(seed, "served.sessions")
    chaos = session_items(seed, "served.chaos")
    seen = set()
    while True:
        sizes = (SERVED_HOURS, SERVED_SESSION_TRIALS, SERVED_HOURS)
        for trial_hours, session_trials, chaos_hours in zip(
            *(rng.sample(values, len(values)) for values in sizes)
        ):
            item, session, fault = next(trials), next(sessions), next(chaos)
            block = (
                JobSpec(kind="trials", device=item.device, mode=item.mode.lower(),
                        seed=item.seed, trials=1, hours=trial_hours,
                        scheduler=item.scheduler),
                JobSpec(kind="sessions", device=session.device, seed=session.seed,
                        trials=session_trials),
                JobSpec(kind="chaos", device=fault.device, seed=fault.seed, trials=1,
                        hours=chaos_hours, fault_plan="lossy"),
            )
            for spec in block:
                job_id = job_id_for(spec)
                if job_id not in seen:
                    seen.add(job_id)
                    yield spec


# -- running one item ----------------------------------------------------------


def run_campaign_item(item: CampaignItem):
    from repro.core.campaign import Mode, run_campaign

    return run_campaign(
        device=item.device,
        mode=Mode[item.mode],
        duration=CAMPAIGN_DURATION_S,
        seed=item.seed,
        scheduler=item.scheduler,
    )


def campaign_digest(result) -> str:
    from repro.core.resultio import campaign_to_wire, dumps_wire

    return sha256_text(dumps_wire(campaign_to_wire(result)))


def run_session_item(item: SessionItem):
    from repro.core.session import run_sessions, session_plan_with_trials

    return run_sessions(
        device=item.device, seed=item.seed, plan=session_plan_with_trials(item.trials)
    )


def session_digest(result) -> str:
    from repro.core.resultio import dumps_wire, session_to_wire

    return sha256_text(dumps_wire(session_to_wire(result)))


# -- set-up --------------------------------------------------------------------


class Served:
    """One in-process job service with its WAL checkpoint and a client."""

    def __init__(self, out_dir: str):
        from repro.serve.client import ServeClient
        from repro.serve.service import ServiceThread

        self.checkpoint = os.path.join(
            out_dir, f"serve-{os.getpid()}-{threading.get_ident()}-{now():.6f}.ckpt"
        )
        self.thread = ServiceThread(workers=1, checkpoint_path=self.checkpoint).start()
        if not self.thread.port:
            raise RuntimeError("job service did not start")
        self.client = ServeClient(port=self.thread.port)
        self.warm_up()

    def warm_up(self) -> None:
        """Run one trivial sessions job, which spawns the worker process."""
        from repro.serve.protocol import JOB_DONE, JobSpec

        spec = JobSpec(kind="sessions", device="D1", seed=0, trials=1, flows=("inclusion",))
        job_id = self.client.submit(spec).job_id
        deadline = now() + 60.0
        while self.client.status(job_id).state != JOB_DONE:
            if now() > deadline:
                raise RuntimeError("warm-up job did not finish")
            time.sleep(POLL_S)
        self.client.result_bytes(job_id)

    def worker_pids(self) -> List[int]:
        import multiprocessing

        return [child.pid for child in multiprocessing.active_children()]

    def stop(self) -> None:
        import multiprocessing

        self.thread.stop(drain=True, timeout=60.0)
        for child in multiprocessing.active_children():
            child.join(timeout=30.0)
        try:
            os.remove(self.checkpoint)
        except FileNotFoundError:
            pass


def set_up(workload: str, out_dir: str) -> Dict[str, object]:
    """The per-process set-up a user pays: imports, registries, boot."""
    timings: Dict[str, object] = {}
    t0 = now()
    for module in IMPORTS[workload]:
        importlib.import_module(module)
    t1 = now()
    from repro.zwave.registry import load_full_registry, load_public_registry

    load_public_registry()
    load_full_registry()
    t2 = now()
    timings["setup.import_s"] = t1 - t0
    timings["registry.load_s"] = t2 - t1
    timings["serve.boot_s"] = 0.0
    if workload == "served":
        timings["service"] = Served(out_dir)
        timings["serve.boot_s"] = now() - t2
    return timings


# -- results of one loop -------------------------------------------------------


@dataclass
class LoopResult:
    #: Raw seconds per timed item, in run order.
    item_times: List[float] = field(default_factory=list)
    #: Host-speed scale factor per timed item (see ``hostspeed``).
    item_scales: List[float] = field(default_factory=list)
    work: int = 0
    wall_s: float = 0.0
    #: ``wall_s`` with each stretch between two submissions scaled (served).
    scaled_wall_s: float = 0.0
    #: Items started (served: jobs submitted); fewer than the run's item
    #: count only when the ``--seconds`` cap cut the run short.
    submitted: int = 0
    #: Per-item facts the traced run reduces (mode, packets, times, ...).
    facts: List[dict] = field(default_factory=list)
    #: Traced wall time ÷ untraced wall time over the same items.
    overhead_ratio: Optional[float] = None

    @property
    def scaled_times(self) -> List[float]:
        return [raw * scale for raw, scale in zip(self.item_times, self.item_scales)]

    @property
    def work_per_s(self) -> float:
        """Work per scaled second of item time (campaign, sessions) or wall time (served)."""
        denominator = self.scaled_wall_s if self.wall_s else sum(self.scaled_times)
        return self.work / denominator


# -- in-process workloads (campaign, sessions) ---------------------------------


@dataclass(frozen=True)
class InProcess:
    """How to generate, run, check and count the items of one workload."""

    items: Callable[[int], Iterator]
    #: Items in one run.
    count: int
    run: Callable
    digest: Callable[[object], str]
    problems: Callable[[object, object], List[str]]
    work: Callable[[object], int]
    #: Name of the span around one traced item (its self time is unattributed).
    item_span: str


CAMPAIGN = InProcess(
    items=campaign_items,
    count=CAMPAIGN_ITEMS,
    run=run_campaign_item,
    digest=campaign_digest,
    problems=lambda item, result: campaign_problems(
        result, item.device, item.mode, CAMPAIGN_DURATION_S
    ),
    work=lambda result: result.fuzz.packets_sent,
    item_span="campaign",
)

SESSIONS = InProcess(
    items=session_items,
    count=SESSION_ITEMS,
    run=run_session_item,
    digest=session_digest,
    problems=lambda item, result: session_problems(result, item.device, item.trials),
    work=lambda result: result.total_trials,
    item_span="session.unit",
)


#: The in-process workloads by name; ``served`` has its own loop below.
IN_PROCESS = {"campaign": CAMPAIGN, "sessions": SESSIONS}


def _capped_items(workload: InProcess, seed: int, seconds: float, out: LoopResult):
    """The run's ``(index, item)`` pairs, stopping early once *seconds* have passed."""
    start = now()
    for index, item in enumerate(itertools.islice(workload.items(seed), workload.count)):
        if now() - start >= seconds:
            return
        out.submitted += 1
        yield index, item


def item_loop(workload: InProcess, seed: int, seconds: float, tally: Tally) -> LoopResult:
    """Untraced: the workload's fixed item list, capped at *seconds*.

    Outputs are checked between items, outside the item timer.  The host
    speed is probed just before each item.
    """
    out = LoopResult()
    probes: List[float] = []
    timed: List[int] = []
    for index, item in _capped_items(workload, seed, seconds, out):
        probes.append(probe())
        t0 = now()
        try:
            result = workload.run(item)
        except Exception as exc:  # a crashed item is a failed item
            tally.record(index, None, [f"{type(exc).__name__}: {exc}"])
            continue
        elapsed = now() - t0
        if tally.record(index, workload.digest(result), workload.problems(item, result)):
            out.item_times.append(elapsed)
            timed.append(len(probes) - 1)
            out.work += workload.work(result)
    factors = scales(probes)
    out.item_scales = [factors[position] for position in timed]
    return out


def traced_item_loop(
    workload: InProcess,
    seed: int,
    seconds: float,
    tally: Tally,
    log: SpanLog,
    install: Callable[[], None],
    facts_of: Callable[[object, object], dict],
) -> LoopResult:
    """Traced: the capped item list, each item run untraced and traced.

    The order of the two alternates from item to item.  Per-layer
    numbers come from the traced twin; the overhead ratio is summed
    traced time over summed untraced time.  Both twins must produce the
    same output.
    """
    out = LoopResult()
    plain_total = traced_total = 0.0
    for index, item in _capped_items(workload, seed, seconds, out):

        def run_plain():
            t0 = now()
            result = workload.run(item)
            return result, now() - t0

        def run_traced():
            install()
            log.set_item(index)
            t0 = now()
            span = log.open(workload.item_span)
            try:
                result = workload.run(item)
            finally:
                log.close(span)
                log.unwrap()
            return result, now() - t0

        try:
            if index % 2 == 0:
                plain, plain_s = run_plain()
                traced, traced_s = run_traced()
            else:
                traced, traced_s = run_traced()
                plain, plain_s = run_plain()
        except Exception as exc:
            tally.record(index, None, [f"{type(exc).__name__}: {exc}"])
            continue
        digest = workload.digest(plain)
        problems = workload.problems(item, plain)
        if workload.digest(traced) != digest:
            problems.append("traced output differs from untraced output")
        if tally.record(index, digest, problems):
            out.item_times.append(plain_s)
            plain_total += plain_s
            traced_total += traced_s
            facts = facts_of(item, plain)
            facts.update(index=index, plain_s=plain_s, traced_s=traced_s)
            out.facts.append(facts)
    out.overhead_ratio = traced_total / plain_total if plain_total else None
    return out


# -- served --------------------------------------------------------------------


@dataclass
class _Job:
    index: int
    spec: object
    job_id: str
    sequence: int
    submitted: float


def served_loop(
    service: Served,
    seed: int,
    seconds: float,
    tally: Tally,
    spool_path: str,
    limit: int = SERVED_JOBS,
    log: Optional[SpanLog] = None,
    done_at: Optional[Dict[str, float]] = None,
) -> LoopResult:
    """Closed loop keeping ``SERVED_OUTSTANDING`` jobs in flight.

    One item: submit, poll every ``POLL_S``, fetch the result bytes and
    check their digest, then resubmit the same spec and check it is an
    idempotent hit.  Latency runs from submit to the checked result.
    The first *limit* specs are submitted; new submissions stop early
    once *seconds* have passed, and jobs still in flight then finish and
    count.  With *done_at* (traced run), the lag between the service
    finishing a job and the poll seeing it is recorded per item.
    """
    from repro.serve.protocol import JOB_DONE, JOB_FAILED

    client = service.client
    out = LoopResult()
    specs = served_specs(seed)
    outstanding: List[_Job] = []
    finished_jobs: List[dict] = []
    submitted = 0
    #: Per submission: its host-speed probe and the wall time around it.
    probes: List[float] = []
    probe_starts: List[float] = []
    probe_ends: List[float] = []
    start = now()
    with open(spool_path, "wb") as spool:
        while True:
            while (
                len(outstanding) < SERVED_OUTSTANDING
                and submitted < limit
                and now() - start < seconds
            ):
                spec = next(specs)
                probe_starts.append(now())
                probes.append(probe())
                probe_ends.append(now())
                t0 = now()
                status = client.submit(spec)
                outstanding.append(_Job(submitted, spec, status.job_id, status.sequence, t0))
                submitted += 1
            if not outstanding:
                break
            finished = False
            for job in list(outstanding):
                status = client.status(job.job_id)
                if status.state not in (JOB_DONE, JOB_FAILED):
                    continue
                seen = now()
                finished = True
                outstanding.remove(job)
                entry = {"job": job, "problems": [], "digest": None, "body": None}
                finished_jobs.append(entry)
                if status.state == JOB_FAILED:
                    entry["problems"].append(f"job failed: {status.error}")
                    continue
                body = client.result_bytes(job.job_id)
                entry["digest"] = sha256_text(body)
                fetched = now()
                entry["body"] = (spool.tell(), len(body))
                spool.write(body)
                span = log.open("serve.resubmit") if log is not None else None
                again = client.submit(job.spec)
                if span is not None:
                    log.close(span)
                if (again.job_id, again.state, again.sequence) != (
                    job.job_id, JOB_DONE, job.sequence
                ):
                    entry["problems"].append("resubmission was not an idempotent hit")
                entry["latency"] = fetched - job.submitted
                entry["facts"] = {"index": job.index, "kind": job.spec.kind}
                if done_at is not None and job.job_id in done_at:
                    entry["facts"]["observe_lag_s"] = seen - done_at[job.job_id]
                if log is not None:
                    log.interval("served.item", job.submitted, fetched, job.index)
            if not finished:
                time.sleep(POLL_S)
    end = now()
    out.wall_s = end - start
    out.submitted = submitted
    # Each stretch from one probe's end to the next probe's start (or the
    # end of the phase) is scaled by that submission's factor; the probes'
    # own time is left out.
    factors = scales(probes)
    stretch_ends = probe_starts[1:] + [end]
    out.scaled_wall_s = sum(
        (stop - begin) * factor
        for begin, stop, factor in zip(probe_ends, stretch_ends, factors)
    )
    # Structural checks read the spooled bodies back, outside the timed loop.
    with open(spool_path, "rb") as spool:
        for entry in finished_jobs:
            job = entry["job"]
            problems = entry["problems"]
            if entry["body"] is not None:
                offset, length = entry["body"]
                spool.seek(offset)
                problems += served_problems(job.spec, spool.read(length))
            if tally.record(job.index, entry["digest"], problems):
                out.item_times.append(entry["latency"])
                out.item_scales.append(factors[job.index])
                out.facts.append(entry["facts"])
                out.work += 1
    os.remove(spool_path)
    return out
