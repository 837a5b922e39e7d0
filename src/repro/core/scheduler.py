"""Coverage-guided adaptive PSM scheduling (the CovFUZZ-style feedback loop).

The static campaign walks the CMDCL priority queue with one fixed C_T
window per class, replaying each class's deterministic mutation prefix on
every requeue pass.  That leaves the strongest feedback signal the system
already produces — the registry-checked CMDCL×CMD coverage bitmap the
controller dispatcher writes into :mod:`repro.obs` — completely unused.

:class:`CoverageScheduler` closes the loop:

* **probe sweep** — every CMDCL in the static priority order first gets a
  short probe window (``PROBE_FACTOR`` × C_T), so no class waits an hour
  behind high-priority duds;
* **adaptive energy** — after the sweep, windows are assigned by an
  ε-greedy policy: with probability ``EPSILON`` the least-fuzzed class is
  probed again (exploration), otherwise the class with the highest
  :meth:`~CoverageScheduler.energy_vector` score is revisited with a
  window scaled by its recent coverage novelty (exploitation);
* **resumable streams** — each class keeps one persistent mutation
  iterator, so a revisit continues where the previous window stopped
  instead of replaying the prefix from the top;
* **corpus** — frames whose dispatch grew the coverage bitmap are kept
  as seeds and preferentially re-mutated (seeded havoc) at the start of
  every revisit.

Determinism contract: the scheduler is a pure function of the campaign
seed and the (deterministic) coverage feedback.  Its only entropy source
is one generator seeded via the CRC-32 :func:`~repro.faults.schedule.derive_seed`
convention — never the builtin ``hash()`` (lint rule D104) — so the same
``(device, mode, seed, scheduler)`` produces byte-identical results in a
serial run and in every ``--workers N`` shard.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from ..faults.schedule import derive_seed
from ..obs.metrics import MetricsCollector
from ..zwave.application import ApplicationPayload
from ..zwave.registry import SpecRegistry
from .mutation import (
    INTERESTING_VALUES,
    MutationOperator,
    PositionSensitiveMutator,
    TestCase,
)

#: The ``scheduler=`` knob values accepted by campaigns, trials and the CLI.
SCHEDULERS: Tuple[str, ...] = ("static", "coverage")

#: Probe windows are this fraction of the configured C_T.
PROBE_FACTOR = 0.25
#: Exploit windows never exceed this multiple of C_T.
EXPLOIT_CAP = 2.5
#: Per-novel-frame window growth of an exploit window (in C_T units).
EXPLOIT_GAIN = 0.25
#: Exploration rate of the ε-greedy split.
EPSILON = 0.2
#: Corpus entries re-mutated per revisit, and havoc variants per entry.
CORPUS_READ_CAP = 4
CORPUS_VARIANTS = 2
#: Cap on the prefix-remaining term of the energy score (in frames).
PREFIX_TERM_CAP = 80

#: Decision reasons, as recorded in the scheduler trace and obs counters.
REASON_PROBE = "probe"
REASON_EXPLORE = "explore"
REASON_EXPLOIT = "exploit"


@dataclass(frozen=True)
class SchedulerDecision:
    """One scheduling step: fuzz *cmdcl* for a *window_s* quiet window."""

    cmdcl: int
    window_s: float
    reason: str


@dataclass
class CmdclEnergyState:
    """Per-class feedback accumulated across windows."""

    queue_pos: int
    frames: int = 0
    novel: int = 0
    windows: int = 0
    #: Coverage-novel frames of the most recent *completed* window — the
    #: freshness term of the energy score.
    last_novel: int = 0
    #: Novel frames of the window currently running (folded into
    #: ``last_novel`` when the window closes).
    window_novel: int = 0


def canonical_corpus(payloads: Iterable[bytes], cap: int = CORPUS_READ_CAP) -> Tuple[bytes, ...]:
    """The canonical read view of a corpus bucket: sorted, deduped, capped.

    Insertion order never matters — two campaigns that discovered the
    same coverage-novel payloads in different orders re-mutate the same
    seeds (``tests/test_scheduler_properties.py`` holds this line).
    """
    return tuple(sorted(set(payloads)))[:cap]


class CoverageScheduler:
    """Assigns per-CMDCL fuzzing energy from coverage-bitmap novelty.

    The scheduler owns three deterministic inputs: the static priority
    *queue* (exploration order and tie-break), the *collector* whose
    coverage bitmap the controller dispatcher writes, and one rng seeded
    from ``derive_seed(seed, "scheduler.coverage")`` for the ε-greedy
    split and corpus havoc.  :meth:`streams` is the engine-facing API —
    it yields ``(cmdcl, cases, window)`` stream tuples exactly like
    :func:`repro.core.fuzzer.psm_streams`, forever.
    """

    def __init__(
        self,
        queue: Sequence[int],
        registry: SpecRegistry,
        collector: MetricsCollector,
        mutator: PositionSensitiveMutator,
        seed: int,
        cmdcl_time: float = 60.0,
    ):
        if not queue:
            raise ValueError("coverage scheduler needs a non-empty CMDCL queue")
        self._queue: Tuple[int, ...] = tuple(queue)
        self._registry = registry
        self._collector = collector
        self._mutator = mutator
        self._cmdcl_time = float(cmdcl_time)
        self._rng = random.Random(derive_seed(seed, "scheduler.coverage"))
        self._states: Dict[int, CmdclEnergyState] = {
            cmdcl: CmdclEnergyState(queue_pos=pos)
            for pos, cmdcl in enumerate(self._queue)
        }
        self._sweep_index = 0
        self._iters: Dict[int, Iterator[TestCase]] = {}
        self._corpus: Dict[int, set] = {}
        self._corpus_total = 0
        self._trace: List[Tuple[int, float, str]] = []

    # -- public state ----------------------------------------------------------

    def trace(self) -> Tuple[Tuple[int, float, str], ...]:
        """Every decision so far as ``(cmdcl, window_s, reason)`` tuples."""
        return tuple(self._trace)

    def corpus_payloads(self, cmdcl: int) -> Tuple[bytes, ...]:
        """The canonical (order-independent) corpus view for one class."""
        return canonical_corpus(self._corpus.get(cmdcl, ()))

    # -- the energy model ------------------------------------------------------

    def energy_vector(self) -> Dict[int, float]:
        """The exploitation score of every queued CMDCL, highest = next.

        A pure function of the scheduler's accumulated per-class state,
        the collector's coverage bitmap and the registry — no entropy, so
        two schedulers with identical feedback produce identical vectors
        (the purity property of the test suite).  Terms:

        * recent novelty — coverage-novel frames of the last window,
          weighted strongest (the CovFUZZ energy signal);
        * residual dispatch paths — registry-defined ``(cmdcl, cmd)``
          pairs the bitmap has not seen yet;
        * prefix remaining — unconsumed deterministic-prefix frames, so
          every class's bug-bearing stages drain even when its coverage
          plateaus early.
        """
        scores: Dict[int, float] = {}
        for cmdcl in self._queue:
            state = self._states[cmdcl]
            cls = self._registry.get(cmdcl)
            defined = cls.command_count if cls is not None else 0
            residual = max(0, defined - self._collector.covered_pairs(cmdcl))
            prefix_rem = max(0, self._mutator.prefix_length(cmdcl) - state.frames)
            scores[cmdcl] = (
                3.0 * state.last_novel
                + 1.0 * residual
                + min(prefix_rem, PREFIX_TERM_CAP) / 16.0
            )
        return scores

    def next_decision(self) -> SchedulerDecision:
        """Pick the next ``(cmdcl, window)`` to fuzz.

        Phase 1 sweeps the whole queue with probe windows; afterwards the
        seeded ε-greedy split alternates exploration (least-fuzzed class)
        with exploitation (argmax of :meth:`energy_vector`, window scaled
        by recent novelty).  Ties always break on static queue position —
        never on container iteration order.
        """
        probe = self._cmdcl_time * PROBE_FACTOR
        if self._sweep_index < len(self._queue):
            cmdcl = self._queue[self._sweep_index]
            self._sweep_index += 1
            return SchedulerDecision(cmdcl, probe, REASON_PROBE)
        if self._rng.random() < EPSILON:
            return SchedulerDecision(self._least_fuzzed(), probe, REASON_EXPLORE)
        scores = self.energy_vector()
        best = min(
            self._queue,
            key=lambda c: (-scores[c], self._states[c].queue_pos),
        )
        if scores[best] <= 0.0:
            # Steady state: everything drained — keep cycling the rng
            # tails, cheapest-first, like the static requeue would.
            return SchedulerDecision(self._least_fuzzed(), probe, REASON_EXPLORE)
        window = self._cmdcl_time * min(
            EXPLOIT_CAP, 1.0 + EXPLOIT_GAIN * self._states[best].last_novel
        )
        return SchedulerDecision(best, window, REASON_EXPLOIT)

    def _least_fuzzed(self) -> int:
        return min(
            self._queue,
            key=lambda c: (self._states[c].frames, self._states[c].queue_pos),
        )

    # -- the engine-facing stream ----------------------------------------------

    def streams(self) -> Iterator[Tuple[int, Iterator[TestCase], Optional[float]]]:
        """Endless adaptive stream tuples for :meth:`FuzzingEngine.run`."""
        while True:
            decision = self.next_decision()
            state = self._states[decision.cmdcl]
            state.windows += 1
            state.window_novel = 0
            self._collector.inc(
                f"scheduler.energy.{decision.cmdcl:02x}",
                int(round(decision.window_s)),
            )
            self._collector.inc(f"scheduler.windows.{decision.reason}")
            self._trace.append(
                (decision.cmdcl, round(decision.window_s, 6), decision.reason)
            )
            yield decision.cmdcl, self._window_cases(decision), decision.window_s
            # The engine moved on: close the window out so the next
            # decision sees this window's novelty as "recent".
            state.last_novel = state.window_novel

    def _window_cases(self, decision: SchedulerDecision) -> Iterator[TestCase]:
        """One window's cases: corpus re-mutations, then the resumed stream."""
        cmdcl = decision.cmdcl
        stream = self._iters.get(cmdcl)
        if stream is None:
            stream = self._iters[cmdcl] = iter(self._mutator.generate(cmdcl))
        cases: Iterator[TestCase] = stream
        if decision.reason != REASON_PROBE:
            corpus = self.corpus_payloads(cmdcl)
            if corpus:
                cases = _chain(self._corpus_cases(cmdcl, corpus), stream)
        return self._instrumented(cmdcl, cases)

    def _instrumented(self, cmdcl: int, cases: Iterator[TestCase]) -> Iterator[TestCase]:
        """Attribute coverage growth to the frame that caused it.

        The engine resumes this generator only after the previous case
        was injected and dispatched, so comparing the bitmap size across
        the ``yield`` observes exactly that frame's effect.  (The final
        case of a window is never attributed — the engine breaks out
        without resuming — which is deterministic and therefore fine.)
        """
        state = self._states[cmdcl]
        for case in cases:
            mark = self._collector.coverage_size()
            yield case
            state.frames += 1
            if self._collector.coverage_size() > mark:
                state.novel += 1
                state.window_novel += 1
                self._collector.inc("scheduler.coverage_novel_frames")
                self._remember(cmdcl, case)

    # -- the corpus ------------------------------------------------------------

    def _remember(self, cmdcl: int, case: TestCase) -> None:
        bucket = self._corpus.setdefault(cmdcl, set())
        payload = case.payload.encode()
        if payload not in bucket:
            bucket.add(payload)
            self._corpus_total += 1
            self._collector.gauge_max("scheduler.corpus_size", self._corpus_total)

    def _corpus_cases(self, cmdcl: int, corpus: Tuple[bytes, ...]) -> Iterator[TestCase]:
        for payload in corpus:
            for _ in range(CORPUS_VARIANTS):
                self._collector.inc("scheduler.corpus_cases")
                yield self._havoc(cmdcl, payload)

    def _havoc(self, cmdcl: int, payload: bytes) -> TestCase:
        """One seeded re-mutation of a coverage-novel seed frame.

        Position-sensitive to the end: the CMDCL byte is never touched,
        the command byte only arithmetically, parameters freely.
        """
        cmd = payload[1] if len(payload) > 1 else 0x00
        params = bytearray(payload[2:])
        ops = ["append", "arith"]
        if params:
            ops += ["flip", "truncate"]
        op = self._rng.choice(ops)
        if op == "flip":
            index = self._rng.randrange(len(params))
            params[index] ^= 1 << self._rng.randrange(8)
        elif op == "truncate":
            del params[-1]
        elif op == "append":
            params.append(self._rng.choice(INTERESTING_VALUES))
        else:  # arith on the command byte
            cmd = (cmd + self._rng.choice((-1, 1))) & 0xFF
        return TestCase(
            ApplicationPayload(cmdcl, cmd, bytes(params)),
            MutationOperator.CORPUS,
            1 if op == "arith" else 2 + max(0, len(params) - 1),
            "corpus re-mutation",
        )


def _chain(*iterators: Iterator[TestCase]) -> Iterator[TestCase]:
    for iterator in iterators:
        for case in iterator:
            yield case
