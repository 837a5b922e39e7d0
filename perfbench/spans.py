"""Outside-in span tracer for the traced benchmark run.

Spans are recorded around calls *into* each layer by wrapping public
names where their callers look them up (a module global, or a class
attribute for methods); nothing inside ``src/`` is edited.  Each span is
``[name, start, end, parent, item]`` kept in memory and written out once
the run ends.  Every thread has its own span stack, because the job
service runs its event loop on a thread of its own.
"""

from __future__ import annotations

import functools
import gzip
import json
import threading
import time
from typing import Callable, Dict, List, Optional

from measure import self_times

_now = time.perf_counter

#: Which phase a ``SimClock.advance_to`` call is charged to: the nearest
#: enclosing span with one of these names decides.
CLOCK_PHASE: Dict[str, str] = {
    "oracle.ping": "clock.oracle",
    "oracle.memory": "clock.oracle",
    "oracle.host": "clock.oracle",
    "recovery": "clock.fuzz",
    "mutation": "clock.fuzz",
    "fuzzer": "clock.fuzz",
    "fingerprint": "clock.fingerprint",
    "discovery": "clock.discovery",
    "tester.verify": "clock.verify",
}


def _lookup(owner, attr: str):
    """The attribute as stored: a class's own ``__dict__`` entry, not a bound view."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


class SpanLog:
    """In-memory span store with one open-span stack per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        #: Guards taking a span's index together with appending it.
        self._lock = threading.Lock()
        self._local = threading.local()
        self._restore: List[Callable[[], None]] = []

    # -- recording -------------------------------------------------------------

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def set_item(self, item) -> None:
        """Tag the calling thread's following spans with *item*."""
        self._local.item = item

    def current_item(self):
        return getattr(self._local, "item", None)

    def open(self, name: str) -> int:
        stack = self._stack()
        parent = stack[-1] if stack else None
        item = getattr(self._local, "item", None)
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, _now(), None, parent, item])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _now()
        self._stack().pop()

    def interval(self, name: str, start: float, end: float, item=None) -> None:
        """Record a span that did not nest on one stack (queue wait, units)."""
        with self._lock:
            self.spans.append([name, start, end, None, item])

    def inside(self, name: str) -> bool:
        """Whether a span called *name* is open on the calling thread."""
        spans = self.spans
        return any(spans[index][0] == name for index in self._stack())

    def clock_phase(self) -> str:
        spans = self.spans
        for index in reversed(self._stack()):
            phase = CLOCK_PHASE.get(spans[index][0])
            if phase is not None:
                return phase
        return "clock.other"

    # -- wrapping --------------------------------------------------------------

    def wrap(
        self,
        owner,
        attr: str,
        name,
        when: Optional[Callable[[], bool]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        *name* is a span name or a zero-argument callable returning one
        (evaluated at call time).  With *when*, calls for which it returns
        ``False`` pass straight through unrecorded.
        """
        original = _lookup(owner, attr)
        log = self
        naming = name if callable(name) else (lambda: name)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if when is not None and not when():
                return original(*args, **kwargs)
            index = log.open(naming())
            try:
                return original(*args, **kwargs)
            finally:
                log.close(index)

        self.patch(owner, attr, wrapper)

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr``, remembering the original for :meth:`unwrap`."""
        original = _lookup(owner, attr)
        setattr(owner, attr, replacement)
        self._restore.append(lambda: setattr(owner, attr, original))

    def unwrap(self) -> None:
        """Put every wrapped name back, newest first."""
        while self._restore:
            self._restore.pop()()

    def timed_iter(self, iterator, name: str):
        """Yield from *iterator*, recording each ``next()`` as a span."""
        iterator = iter(iterator)
        while True:
            index = self.open(name)
            try:
                value = next(iterator)
            except StopIteration:
                return
            finally:
                self.close(index)
            yield value

    # -- reduction -------------------------------------------------------------

    def self_by_name(self) -> Dict[str, List[float]]:
        """Per span name: ``[count, self seconds, inclusive seconds]``.

        Spans still open (no end) are skipped.
        """
        closed = [span for span in self.spans if span[2] is not None]
        remap = {id(span): i for i, span in enumerate(closed)}
        triples = []
        for span in closed:
            parent = span[3]
            parent_span = self.spans[parent] if parent is not None else None
            triples.append(
                (
                    span[1],
                    span[2],
                    None if parent_span is None else remap.get(id(parent_span)),
                )
            )
        selfs = self_times(triples)
        table: Dict[str, List[float]] = {}
        for span, own in zip(closed, selfs):
            row = table.setdefault(span[0], [0, 0.0, 0.0])
            row[0] += 1
            row[1] += own
            row[2] += span[2] - span[1]
        return table

    def write(self, path: str) -> None:
        """Write every span as one JSON line (gzip) at *path*."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as handle:
            for name, start, end, parent, item in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end,
                         "parent": parent, "item": item},
                        separators=(",", ":"),
                    )
                )
                handle.write("\n")
