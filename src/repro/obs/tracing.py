"""Lightweight tracing spans over simulated time.

Usage, from anywhere below an active tracer::

    with span("psm.mutate", cmdcl=0x25):
        ...

Spans measure **simulated** time (the :class:`~repro.radio.clock.SimClock`
the campaign runs against), so traces are deterministic; each record also
carries a wall-clock duration for profiling ``--workers`` runs, read
through :func:`repro.radio.clock.wall_monotonic` — the lint D101 time
owner — and kept out of every deterministic artefact (it appears only in
the JSONL trace export, never in a metrics document).

Completed spans land in two places: a bounded in-memory ring on the
:class:`Tracer` (oldest records drop when full; ``tracer.dropped`` counts
them) and, as ``(count, simulated µs)`` aggregates, on the active
:class:`~repro.obs.metrics.MetricsCollector` — so merged metrics include
span totals even though rings never cross process boundaries.
"""

from __future__ import annotations

import json
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Deque, Dict, Iterator, List, Optional

from ..radio.clock import SimClock, wall_monotonic
from . import metrics as _metrics

#: Default ring capacity: enough for every phase span of a long campaign
#: without letting an instrumented hot loop grow memory without bound.
DEFAULT_CAPACITY = 4096


@dataclass(frozen=True)
class SpanRecord:
    """One completed span: simulated interval, wall cost, attributes."""

    name: str
    start_s: float  # simulated seconds at entry
    end_s: float  # simulated seconds at exit
    wall_us: int  # wall-clock duration, profiling only
    attrs: Dict[str, str] = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.end_s - self.start_s

    def to_dict(self) -> dict:
        """JSON-clean form for the JSONL trace export."""
        return {
            "name": self.name,
            "start_s": self.start_s,
            "end_s": self.end_s,
            "duration_s": self.duration_s,
            "wall_us": self.wall_us,
            "attrs": dict(self.attrs),
        }


class Tracer:
    """A bounded ring of completed spans bound to one simulated clock."""

    def __init__(
        self,
        clock: Optional[SimClock] = None,
        capacity: int = DEFAULT_CAPACITY,
    ):
        #: Bound lazily by :func:`repro.core.campaign.run_campaign` when the
        #: caller constructs the tracer before the testbed exists.
        self.clock = clock
        self._ring: Deque[SpanRecord] = deque(maxlen=max(1, capacity))
        self._total = 0

    @property
    def dropped(self) -> int:
        """Spans evicted from the ring by newer ones."""
        return self._total - len(self._ring)

    def records(self) -> List[SpanRecord]:
        """The retained spans, oldest first."""
        return list(self._ring)

    def _now(self) -> float:
        return self.clock.now if self.clock is not None else 0.0

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator["Tracer"]:
        """Record the enclosed block as one span named *name*."""
        start_sim = self._now()
        start_wall = wall_monotonic()
        try:
            yield self
        finally:
            end_sim = self._now()
            wall_us = int((wall_monotonic() - start_wall) * 1_000_000)
            record = SpanRecord(
                name=name,
                start_s=start_sim,
                end_s=end_sim,
                wall_us=wall_us,
                attrs={key: str(attrs[key]) for key in sorted(attrs)},
            )
            self._ring.append(record)
            self._total += 1
            collector = _metrics.active_collector()
            if collector is not None:
                collector.record_span(
                    name, int(round((end_sim - start_sim) * 1_000_000))
                )

    def export_jsonl(self, path: str) -> int:
        """Write the retained spans as JSON lines; returns the line count.

        The export carries wall-clock profiling data and is therefore NOT
        byte-deterministic — it is a profiling artefact, not a result.
        """
        records = self.records()
        with open(path, "w", encoding="utf-8") as handle:
            for record in records:
                handle.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return len(records)


# -- the active-tracer stack ---------------------------------------------------

_TRACERS: List[Tracer] = []


def current_tracer() -> Optional[Tracer]:
    """The innermost activated tracer, or ``None`` outside campaigns."""
    return _TRACERS[-1] if _TRACERS else None


@contextmanager
def tracing_to(tracer: Tracer) -> Iterator[Tracer]:
    """Route module-level :func:`span` calls to *tracer* inside the block."""
    _TRACERS.append(tracer)
    try:
        yield tracer
    finally:
        _TRACERS.pop()


@contextmanager
def span(name: str, **attrs) -> Iterator[Optional[Tracer]]:
    """Span against the active tracer; a free no-op when none is active."""
    tracer = current_tracer()
    if tracer is None:
        yield None
        return
    with tracer.span(name, **attrs):
        yield tracer
