"""Discrete-event simulated time.

Every duration in the reproduction — fuzzing trials, hang durations, NOP
ping timeouts, frame airtime — is measured against :class:`SimClock`, so a
"24-hour" campaign runs in milliseconds of wall time while preserving the
ordering and rates the paper reports (≈800 test packets in the first 600
seconds, Figure 12).
"""

from __future__ import annotations

import heapq
import itertools
import math
import time
from typing import Any, Callable, List, Tuple

from ..errors import RadioError

#: Sentinel argument for closure-style events: ``schedule`` stores it in
#: the arg slot so the drain loop can tell ``fn()`` events from ``fn(arg)``
#: events without a per-event closure or type dispatch.
_NO_ARG = object()


def wall_monotonic() -> float:
    """Real monotonic seconds, for wall-clock *profiling* only.

    This module is the lint D101 entropy/time owner — the single
    sanctioned wall-clock read in the tree.  Tracing spans
    (:mod:`repro.obs.tracing`) use it to report where worker wall time
    goes; nothing derived from it may enter a deterministic artefact
    (reports, wire forms, metrics documents).
    """
    return time.monotonic()


def wall_perf_counter_ns() -> int:
    """Highest-resolution wall clock in integer nanoseconds.

    The microbenchmark harness (:mod:`repro.perf`) times hot-path
    workloads with this; like :func:`wall_monotonic` it lives here so the
    D101 determinism rule keeps every other module off the wall clock.
    Timings read from it are *measurements*, never inputs: the perf
    document separates them from the seeded workload checksums, which
    alone are compared byte-for-byte.
    """
    return time.perf_counter_ns()


def wall_sleep(seconds: float) -> None:
    """Block the calling thread for *seconds* of real time.

    The job-service client (:mod:`repro.serve.client`) polls job status
    with this between requests.  ``time.sleep`` is not itself a D101
    violation (it produces no value that could leak into output), but
    routing it through the clock owner keeps every wall-time touchpoint
    in one audited module and lets tests monkeypatch the delay away.
    """
    time.sleep(seconds)


class SimClock:
    """A monotonically advancing simulated clock with a batched event queue.

    The queue is a heap of ``(fire_at, seq, fn, arg)`` records.  ``seq``
    (a monotonically increasing counter) is the tie-break: events sharing
    a fire time drain in the order they were scheduled, which is the
    ordering contract the whole byte-identity story rests on — rng draw
    order, ack interleaving and wire bytes all derive from it.

    Two event shapes share the heap.  Closure events (:meth:`schedule`)
    carry the :data:`_NO_ARG` sentinel and fire as ``fn()``; batched
    events (:meth:`schedule_call`) carry a payload argument and fire as
    ``fn(arg)`` — the radio medium uses the latter to deliver one
    transmission to N listeners with a single heap record instead of N
    closures.
    """

    def __init__(self, start: float = 0.0):
        self._now = float(start)
        self._queue: List[Tuple[float, int, Callable, Any]] = []
        self._counter = itertools.count()
        self._cancelled: set = set()

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    # -- scheduling -----------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[[], None]) -> int:
        """Run *callback* after *delay* seconds; returns a cancellable id."""
        if delay < 0:
            raise RadioError(f"cannot schedule {delay}s in the past")
        event_id = next(self._counter)
        heapq.heappush(self._queue, (self._now + delay, event_id, callback, _NO_ARG))
        return event_id

    def schedule_call(self, delay: float, fn: Callable[[Any], None], arg: Any) -> int:
        """Run ``fn(arg)`` after *delay* seconds; returns a cancellable id.

        The arg-carrying twin of :meth:`schedule`: the callable and its
        payload ride the heap record directly, so hot paths (frame
        delivery above all) schedule without allocating a closure cell
        per event.  Ordering is identical — both shapes share one
        ``(fire_at, seq)`` key space.
        """
        if delay < 0:
            raise RadioError(f"cannot schedule {delay}s in the past")
        event_id = next(self._counter)
        heapq.heappush(self._queue, (self._now + delay, event_id, fn, arg))
        return event_id

    def cancel(self, event_id: int) -> None:
        """Cancel a scheduled event (no-op if already fired)."""
        self._cancelled.add(event_id)

    def elide_events(self, count: int) -> None:
        """Consume the ids of *count* events the caller settles unscheduled.

        For a caller that books events' effects itself because they are
        known in advance: every later event keeps the id, and so the
        tie-break order, it would have had if those events had run.
        """
        for _ in range(count):
            next(self._counter)

    @property
    def pending_events(self) -> int:
        """Number of events still scheduled (including cancelled ones)."""
        return len(self._queue)

    # -- advancing --------------------------------------------------------------

    def advance(self, duration: float) -> None:
        """Move time forward by *duration*, firing due events in order."""
        if duration < 0:
            raise RadioError("cannot advance time backwards")
        self.advance_to(self._now + duration)

    def advance_to(self, deadline: float) -> None:
        """Move time forward to *deadline*, firing due events in order.

        This is the engine's drain loop: every due event — batched
        deliveries included — fires in strict ``(fire_at, seq)`` order.
        Locals are bound once because a fuzzing campaign spends most of
        its wall clock inside this loop.
        """
        # One comparison also rejects NaN and infinity: a NaN deadline
        # would freeze the clock, an infinite one never return.
        if not self._now <= deadline < math.inf:
            raise RadioError(f"cannot advance time from {self._now} to {deadline}")
        queue = self._queue
        cancelled = self._cancelled
        pop = heapq.heappop
        while queue and queue[0][0] <= deadline:
            fire_at, event_id, fn, arg = pop(queue)
            if fire_at > self._now:
                self._now = fire_at
            if cancelled and event_id in cancelled:
                cancelled.discard(event_id)
                continue
            if arg is _NO_ARG:
                fn()
            else:
                fn(arg)
        self._now = deadline

