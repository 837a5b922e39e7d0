"""Campaign-unit execution: one attempt policy for every caller.

The paper's evaluation is embarrassingly parallel — five independent
trials per controller, nine controllers, three ablation modes — and every
campaign is a pure function of ``(device, mode, duration, seed)`` (see
``docs/architecture.md`` §Determinism).  This module exploits that: a
campaign *unit* is a small picklable spec, each worker process builds its
own testbed from the spec, and the parent reassembles results in canonical
submission order, so parallel output is byte-identical to a serial run.

The attempt policy lives in one place, :func:`unit_attempts`, and every
caller — :func:`execute_units` (trials, ablation, compare, sessions) and
the job service — drives it:

* each unit gets up to ``1 + UNIT_RETRIES`` attempts;
* first attempts are submitted in index order and settled in index
  order; a failure is classified once (exception or worker crash) and
  the unit is retried in a fresh single-worker pool, so one persistently
  crashing unit cannot take healthy neighbours down;
* a unit that exhausts its attempts surfaces as a structured
  :class:`UnitFailure` instead of an exception, so one bad shard never
  discards the others' results;
* a drain (Ctrl-C, or the service's shutdown) cancels queued attempts,
  stops retrying and lets in-flight units finish and report.

Units run in the caller's process when there is only one worker to use,
except a unit whose fault token may end that process.
Worker processes return results in the :mod:`repro.wire` form (plain
JSON-safe data), never live simulator objects, so nothing heavyweight —
in particular no :class:`~repro.zwave.registry.SpecRegistry` — crosses a
process boundary.

Fault injection rides the unit itself: ``fault`` carries a
:mod:`repro.faults.worker` token ("raise", "exit", "raise-once:<path>", ...)
applied before the campaign starts, which :func:`assign_worker_faults`
sets from a plan by the unit's position in its job, and
``fault_plan_json`` a serialised :class:`~repro.faults.plan.FaultPlan`
the worker compiles against the unit's seed for in-simulation faults.
Both are ``None`` in production campaigns.
"""

from __future__ import annotations

import os
import traceback
from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Generator, List, Optional, Sequence, Tuple

from ..errors import CampaignError
from ..faults.plan import FaultPlan, loads_plan
from ..faults.schedule import FaultSchedule
from ..faults.worker import WorkerFault, apply_worker_fault
from ..simulator.testbed import build_sut
from ..wire import decode, encode
from .baseline import VFuzzBaseline, VFuzzResult
from .campaign import CampaignResult, Mode, run_campaign
from .session import SessionResult, loads_session_plan, run_session_flow

#: Failure categories recorded on :class:`UnitFailure`.
FAILURE_EXCEPTION = "exception"
FAILURE_CRASH = "worker-crash"

#: Extra attempts a failing unit gets, on every path: the executor and
#: the job service both run :func:`unit_attempts`.
UNIT_RETRIES = 1

#: Each unit kind's result type, and the context its decode errors name.
RESULT_TYPES: Dict[str, Tuple[type, str]] = {
    "zcover": (CampaignResult, "campaign result"),
    "vfuzz": (VFuzzResult, "vfuzz result"),
    "sessions": (SessionResult, "session result"),
}


class ExecutionInterrupted(BaseException):
    """A graceful drain finished: in-flight units were flushed first.

    Raised by :func:`execute_units` instead of letting a raw
    ``KeyboardInterrupt`` (Ctrl-C, or SIGTERM routed through a handler)
    tear units down mid-flight.
    ``outcomes`` carries **every** unit's :class:`UnitOutcome` in
    canonical order — completed units hold their results, undone units
    hold neither result nor failure — so callers can persist the
    completed prefix before exiting.

    Derives from ``BaseException`` like the interrupt it replaces, so
    generic ``except Exception`` recovery paths cannot swallow it.
    """

    def __init__(self, outcomes: "List[UnitOutcome]"):
        done = sum(1 for o in outcomes if o.result is not None)
        super().__init__(f"interrupted after {done} completed unit(s)")
        self.outcomes = outcomes


@dataclass(frozen=True)
class CampaignUnit:
    """One picklable shard of a campaign: everything a worker needs.

    ``kind`` selects the fuzzer ("zcover" runs :func:`run_campaign`,
    "vfuzz" the Table V baseline).  The unit carries only plain values —
    the worker rebuilds its testbed and registries locally.
    """

    device: str = "D1"
    mode: Mode = Mode.FULL
    duration: float = 3600.0
    seed: int = 0
    kind: str = "zcover"
    #: PSM window scheduler ("static" or "coverage"); part of the unit
    #: identity because it changes every downstream byte.
    scheduler: str = "static"
    #: Worker-layer fault token (see :mod:`repro.faults.worker`, e.g.
    #: "raise", "exit", "raise-once:<path>"); None in production.
    fault: Optional[str] = None
    #: Serialised :class:`~repro.faults.plan.FaultPlan` for in-simulation
    #: fault injection (JSON string — keeps the unit hashable and
    #: picklable); None in production.
    fault_plan_json: Optional[str] = None
    #: Session flow name (kind "sessions" only): each flow is its own
    #: shard, so per-flow results merge in canonical flow order.
    flow: str = ""
    #: Serialised :class:`~repro.core.session.SessionPlan` (kind
    #: "sessions" only); None means the stock plan.
    session_plan_json: Optional[str] = None

    def label(self) -> str:
        if self.kind == "sessions":
            return f"{self.kind}:{self.device}:{self.flow}:seed={self.seed}"
        suffix = "" if self.scheduler == "static" else f":{self.scheduler}"
        return f"{self.kind}:{self.device}:{self.mode.name}:seed={self.seed}{suffix}"


def assign_worker_faults(
    units: List[CampaignUnit], fault_plan: Optional[FaultPlan]
) -> List[CampaignUnit]:
    """*units* with the worker-layer fault token *fault_plan* gives each,
    by its position in the list.

    Every kind of unit counts: a worker fault targets the executor, not
    the fuzzer.  A token does not read the seed, so one schedule serves
    the whole list.
    """
    if fault_plan is None:
        return units
    schedule = FaultSchedule(fault_plan, 0)
    return [
        replace(unit, fault=schedule.worker_token(index))
        for index, unit in enumerate(units)
    ]


@dataclass(frozen=True)
class UnitFailure:
    """A shard that exhausted its attempts, as surfaced in merged output."""

    unit: CampaignUnit
    category: str  # FAILURE_EXCEPTION or FAILURE_CRASH
    error: str
    attempts: int

    def render(self) -> str:
        first_line = self.error.strip().splitlines()[-1] if self.error else ""
        return (
            f"FAILED {self.unit.label()} after {self.attempts} attempt(s) "
            f"[{self.category}]: {first_line}"
        )


@dataclass
class UnitOutcome:
    """Final state of one unit: a result or a structured failure."""

    unit: CampaignUnit
    result: Optional[Any] = None
    failure: Optional[UnitFailure] = None
    attempts: int = 0


# -- worker side ---------------------------------------------------------------


def execute_unit(unit: CampaignUnit) -> Any:
    """Run one unit in-process and return the live result object.

    The in-process path runs this directly; worker processes run it via
    :func:`execute_unit_to_wire`.  The determinism suite compares the two
    to prove the codec is lossless.
    """
    apply_worker_fault(unit.fault)
    fault_plan = None if unit.fault_plan_json is None else loads_plan(unit.fault_plan_json)
    if unit.kind == "zcover":
        return run_campaign(
            device=unit.device,
            mode=unit.mode,
            duration=unit.duration,
            seed=unit.seed,
            fault_plan=fault_plan,
            scheduler=unit.scheduler,
        )
    if unit.kind == "vfuzz":
        sut = build_sut(unit.device, seed=unit.seed)
        return VFuzzBaseline(sut, seed=unit.seed).run(unit.duration)
    if unit.kind == "sessions":
        session_plan = (
            None
            if unit.session_plan_json is None
            else loads_session_plan(unit.session_plan_json)
        )
        return run_session_flow(
            device=unit.device, flow=unit.flow, seed=unit.seed, plan=session_plan
        )
    raise CampaignError(f"unknown campaign-unit kind {unit.kind!r}")


def execute_unit_to_wire(unit: CampaignUnit) -> dict:
    """Worker entry point: run one unit, return its wire-form result."""
    return encode(execute_unit(unit))


def rehydrate_unit_result(unit: CampaignUnit, wire: dict) -> Any:
    """Decode one unit's wire-form result (worker reply or checkpoint).

    The job service's checkpoint stores completed units exactly as
    workers returned them, so resuming a killed job replays this decode —
    the same one a live settle uses — and merged output cannot tell the
    difference.
    """
    result_type, context = RESULT_TYPES[unit.kind]
    return decode(result_type, wire, context)


def resolve_workers(workers: Optional[int]) -> int:
    """Resolve a worker request: 0/None mean one worker per CPU core.

    An explicit positive count is honoured verbatim (even beyond the core
    count — oversubscription is the caller's call); the executor still
    never starts more workers than it has units.
    """
    if workers is None or workers <= 0:
        return os.cpu_count() or 1
    return workers


def parallel_supported() -> bool:
    """Whether this platform can run a process pool at all.

    ``ProcessPoolExecutor`` needs working multiprocessing synchronisation
    primitives; some minimal containers ship Python without them, in which
    case every unit runs in the caller's process.
    """
    try:
        import multiprocessing.synchronize  # noqa: F401
    except ImportError:
        return False
    return True


def _run_now(fn: Callable[[CampaignUnit], Any], unit: CampaignUnit) -> Future:
    """Run ``fn(unit)`` here; an already-settled future holds the outcome."""
    future: Future = Future()
    try:
        future.set_result(fn(unit))
    except Exception as exc:  # surfaced when settled, as a pool would
        future.set_exception(exc)
    return future


class WorkerPool:
    """A process pool: per batch for :func:`execute_units`, or kept for
    the service's whole lifetime so jobs do not pay a spawn each.

    On platforms without multiprocessing support ``executor`` is ``None``
    and :meth:`submit` runs the unit in-process.  A pool is spawned even
    for ``workers=1``: the service wants submission to return immediately
    (the worker process runs the unit) rather than block its event loop.
    """

    def __init__(self, workers: int = 1):
        self.workers = resolve_workers(workers)
        #: How often :meth:`respawn` replaced a broken executor.
        self.respawns = 0
        self.executor: Optional[ProcessPoolExecutor] = None
        self._spawn()

    def _spawn(self) -> None:
        if parallel_supported():
            try:
                self.executor = ProcessPoolExecutor(max_workers=self.workers)
            except (OSError, ImportError, NotImplementedError):
                self.executor = None

    def submit(self, unit: CampaignUnit) -> Future:
        """Submit one unit; returns a future resolving to its wire form."""
        if self.executor is None:
            return _run_now(execute_unit_to_wire, unit)
        return self.executor.submit(execute_unit_to_wire, unit)

    def respawn(self) -> None:
        """Replace a broken executor so later submissions stay healthy."""
        self.drain(wait=False)
        self._spawn()
        self.respawns += 1

    def drain(self, wait: bool = True) -> None:
        """Shut the executor down; ``wait=True`` lets in-flight units finish."""
        if self.executor is not None:
            self.executor.shutdown(wait=wait, cancel_futures=True)
            self.executor = None


# -- the attempt policy ---------------------------------------------------------

#: What a driver sends back for each yielded future: ``(value, None)`` or
#: ``(None, exception)``.
Settled = Tuple[Any, Optional[BaseException]]


def _submit(pool: Optional[WorkerPool], unit: CampaignUnit) -> Future:
    """One attempt: in this process (*pool* None) or on *pool*."""
    if pool is None:
        return _run_now(execute_unit, unit)
    try:
        return pool.submit(unit)
    except RuntimeError as exc:  # a pool broken while idle fails the attempt, not the caller
        failed: Future = Future()
        failed.set_exception(exc)
        return failed


def _ends_process(unit: CampaignUnit) -> bool:
    """Whether *unit*'s fault token may end the process that runs it."""
    return bool(unit.fault) and WorkerFault.from_token(unit.fault).kind in ("exit", "exit-once")


def _failure(unit: CampaignUnit, error: BaseException, attempts: int) -> UnitFailure:
    """Classify one failed attempt; the text is the exception's last line."""
    category = FAILURE_CRASH if isinstance(error, BrokenExecutor) else FAILURE_EXCEPTION
    text = "".join(traceback.format_exception_only(type(error), error)).strip()
    return UnitFailure(unit=unit, category=category, error=text, attempts=attempts)


def _ignore_report(index: int, outcome: UnitOutcome, wire: Optional[dict]) -> None:
    pass


def _never() -> bool:
    return False


def unit_attempts(
    outcomes: List[UnitOutcome],
    pool: Optional[WorkerPool],
    report: Callable[[int, UnitOutcome, Optional[dict]], None] = _ignore_report,
    draining: Callable[[], bool] = _never,
    rehydrate: Callable[[CampaignUnit, dict], Any] = rehydrate_unit_result,
) -> Generator[Future, Settled, bool]:
    """The unit attempt policy; a generator its driver settles futures for.

    It yields each future it needs settled and receives that future's
    :data:`Settled` reply; :func:`execute_units` drives it by blocking on
    each future, the job service with an ``await`` on its event loop.
    Outcomes that already hold a result (the service's
    checkpoint-restored units) are skipped.  Units run in this process
    when *pool* is ``None`` (live results) and on *pool* otherwise (wire
    results, decoded by *rehydrate*).

    *report* is called once per unit that settles for good — with the
    wire form of a completed pooled unit, else ``None``.  A
    ``KeyboardInterrupt`` thrown in at a yield, or *draining()* turning
    true, starts the drain: queued attempts are cancelled, nothing is
    retried, in-flight units finish and report, and units left undone
    hold neither result nor failure.  Returns whether it drained.

    A crash of a first attempt respawns *pool* — once, and only while
    it is still the executor that attempt ran on; collateral crashes of
    the same breakage and crashes in isolated retries leave it alone.
    Without *pool*, a unit whose fault token may end its process
    (:func:`_ends_process`) runs each attempt in a
    one-worker pool, as retries on a pool do, so a crash fails that unit
    and not this process.
    """
    origin = pool.executor if pool is not None else None
    submitted: Dict[int, Future] = {}
    solos: Dict[int, WorkerPool] = {}
    drained = False
    try:
        for index, outcome in enumerate(outcomes):
            if outcome.result is None:
                outcome.attempts += 1
                if pool is None and _ends_process(outcome.unit):
                    solos[index] = WorkerPool(workers=1)
                submitted[index] = _submit(solos.get(index, pool), outcome.unit)
    except KeyboardInterrupt:
        drained = True
    for index, future in submitted.items():
        outcome = outcomes[index]
        # The one-worker pool the attempt in flight runs on, if any.
        solo: Optional[WorkerPool] = solos.get(index)
        while True:
            drained = drained or draining()
            if drained:
                for queued in submitted.values():
                    queued.cancel()
                if future.cancelled():
                    break
            try:
                value, error = yield future
            except KeyboardInterrupt:
                drained = True
                continue  # cancel what is queued, then wait for this one
            if solo is not None:
                solo.drain()  # its one attempt has settled
            if error is None:
                decoded = value if pool is None and solo is None else rehydrate(outcome.unit, value)
                outcome.result, outcome.failure = decoded, None
                break
            outcome.failure = _failure(outcome.unit, error, outcome.attempts)
            crashed = outcome.failure.category == FAILURE_CRASH
            if crashed and solo is None and origin is not None and pool.executor is origin:
                pool.respawn()
            drained = drained or draining()
            if drained or outcome.attempts > UNIT_RETRIES:
                break
            outcome.attempts += 1
            try:
                if pool is None and index not in solos:
                    future = _submit(None, outcome.unit)
                else:
                    solo = WorkerPool(workers=1)
                    future = _submit(solo, outcome.unit)
            except KeyboardInterrupt:
                drained = True
                break
        if outcome.result is not None:
            report(index, outcome, None if pool is None else value)
        elif drained:
            outcome.failure = None  # undone: it keeps its full budget for a rerun
        else:
            report(index, outcome, None)
    return drained


def execute_units(units: Sequence[CampaignUnit], workers: int = 1) -> List[UnitOutcome]:
    """Run *units* over *workers* processes and return outcomes in order.

    Returns one :class:`UnitOutcome` per unit **in the input order**,
    regardless of which worker finished first — the caller's merge step
    (:func:`repro.core.trials.merge_trials`) depends on this.

    *workers* resolves through :func:`resolve_workers` (``<= 0`` is one
    per core).  With at most one worker to use, or on a platform without
    a process pool, units run in this process, except a unit whose fault
    token may end it (see :func:`unit_attempts`).  A failing unit gets
    :data:`UNIT_RETRIES` more attempts before its failure is surfaced.

    A ``KeyboardInterrupt`` (Ctrl-C, or SIGTERM routed through a handler)
    drains instead of tearing units down mid-flight, then raises
    :class:`ExecutionInterrupted` carrying every outcome so callers can
    persist the completed prefix.
    """
    outcomes = [UnitOutcome(unit=unit) for unit in units]
    size = min(resolve_workers(workers), len(units))
    pool = WorkerPool(size) if size > 1 and parallel_supported() else None
    drained = True
    try:
        drained = _settle_all(unit_attempts(outcomes, pool))
    except KeyboardInterrupt:
        pass
    finally:
        if pool is not None:
            # Every future has settled unless the run was cut short, so a
            # clean run waits for its workers to exit: an executor left
            # winding down can fail in the interpreter's exit hook.
            pool.drain(wait=not drained)
    if drained:
        raise ExecutionInterrupted(outcomes)
    return outcomes


def _settle_all(core: Generator[Future, Settled, bool]) -> bool:
    """Drive :func:`unit_attempts` by blocking on each future in turn."""
    try:
        future = next(core)
        while True:
            try:
                error = future.exception()  # waits; a unit's error is data
            except KeyboardInterrupt:
                future = core.throw(KeyboardInterrupt())
                continue
            future = core.send((None, error) if error is not None else (future.result(), None))
    except StopIteration as stop:
        return stop.value
