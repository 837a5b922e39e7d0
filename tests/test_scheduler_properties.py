"""Seeded property suite for the coverage-guided scheduler (ISSUE 6).

~500 generated cases across four properties:

* **purity** — the scheduler is a pure function of (coverage snapshot,
  seed): identical feedback gives identical energy vectors and identical
  decision streams (250 seeds);
* **corpus order-independence** — the canonical corpus view never
  depends on insertion order (120 seeds + a scheduler-level check);
* **wire fixpoint** — the v4 ``scheduler``/``scheduler_trace`` fields
  survive ``campaign_to_wire``/``campaign_from_wire`` byte-for-byte
  (120 seeds);
* **serial vs workers 2** — a ``--scheduler coverage`` trial series is
  byte-identical at every worker count.

Plus the satellite-3 regression pin: static prioritisation uses the
explicit total sort key of :func:`repro.core.mutation.static_priority_key`
— never dict/set iteration order — and the mutation/scheduler modules
stay clean under the D103/D104 determinism lint rules.
"""

import random
from pathlib import Path

import pytest

from repro.core.campaign import Mode, CampaignResult
from repro.core.fuzzer import FuzzResult
from repro.core.mutation import (
    PositionSensitiveMutator,
    prioritize_static,
    static_priority_key,
)
from repro.core.resultio import campaign_from_wire, campaign_to_wire
from repro.core.scheduler import (
    PROBE_FACTOR,
    REASON_PROBE,
    SCHEDULERS,
    CoverageScheduler,
    canonical_corpus,
)
from repro.core.trials import run_trials
from repro.obs.metrics import MetricsCollector
from repro.wire import dumps_wire
from repro.zwave.registry import load_full_registry

PURITY_SEEDS = 250
CORPUS_SEEDS = 120
WIRE_SEEDS = 120

#: A small high-signal queue so 250 purity cases stay fast; the classes
#: span rich (0x9F, 0x72), mid (0x5A, 0x59) and lean (0x20) schemas.
QUEUE_CMDCLS = (0x9F, 0x72, 0x86, 0x5A, 0x59, 0x73, 0x20)


@pytest.fixture(scope="module")
def registry():
    """The full protocol knowledge every campaign schedules against."""
    return load_full_registry()


@pytest.fixture(scope="module")
def mutator(registry):
    """One shared mutator: its compiled prefix is pure in (registry, cmdcl)."""
    return PositionSensitiveMutator(registry, random.Random(0))


def _seeded_collector(registry, seed):
    """A collector whose coverage bitmap is a pure function of *seed*."""
    rng = random.Random(seed)
    collector = MetricsCollector()
    for cmdcl in QUEUE_CMDCLS:
        cls = registry.get(cmdcl)
        if cls is None:
            continue
        for cmd_id in cls.command_ids():
            if rng.random() < 0.5:
                collector.cover(cmdcl, cmd_id)
    return collector


def _scheduler(registry, mutator, collector, seed):
    """A scheduler over the fixture queue with the given feedback state."""
    queue = prioritize_static(registry, QUEUE_CMDCLS)
    return CoverageScheduler(queue, registry, collector, mutator, seed)


class TestSchedulerPurity:
    """Same (coverage snapshot, seed) ⇒ same energy vector and decisions."""

    @pytest.mark.parametrize("seed", range(PURITY_SEEDS))
    def test_energy_and_decisions_are_pure(self, registry, mutator, seed):
        """Two schedulers fed identical state agree on every output."""
        left = _scheduler(registry, mutator, _seeded_collector(registry, seed), seed)
        right = _scheduler(registry, mutator, _seeded_collector(registry, seed), seed)
        assert left.energy_vector() == right.energy_vector()
        for _ in range(10):
            a, b = left.next_decision(), right.next_decision()
            assert (a.cmdcl, a.window_s, a.reason) == (b.cmdcl, b.window_s, b.reason)

    def test_probe_sweep_covers_the_whole_queue_first(self, registry, mutator):
        """Phase 1 probes every class once, in static priority order."""
        sched = _scheduler(registry, mutator, MetricsCollector(), 0)
        decisions = [sched.next_decision() for _ in range(len(sched.queue))]
        assert tuple(d.cmdcl for d in decisions) == sched.queue
        assert all(d.reason == REASON_PROBE for d in decisions)
        assert all(d.window_s == 60.0 * PROBE_FACTOR for d in decisions)

    def test_energy_vector_never_uses_container_order(self, registry, mutator):
        """Tied scores break on static queue position, an explicit key."""
        sched = _scheduler(registry, mutator, MetricsCollector(), 0)
        scores = sched.energy_vector()
        assert set(scores) == set(sched.queue)
        for _ in range(len(sched.queue)):
            sched.next_decision()  # drain the probe sweep
        best = sched.next_decision()
        tied = [c for c in sched.queue if scores[c] == scores[best.cmdcl]]
        assert best.cmdcl == min(tied, key=lambda c: sched.queue.index(c))


class TestCorpusOrderIndependence:
    """The canonical corpus read never depends on insertion order."""

    @pytest.mark.parametrize("seed", range(CORPUS_SEEDS))
    def test_canonical_corpus_is_permutation_invariant(self, seed):
        """Any two insertion orders produce the same canonical view."""
        rng = random.Random(seed)
        payloads = [
            bytes(rng.randrange(256) for _ in range(rng.randrange(2, 8)))
            for _ in range(rng.randrange(1, 12))
        ]
        shuffled = list(payloads)
        rng.shuffle(shuffled)
        assert canonical_corpus(payloads) == canonical_corpus(shuffled)
        assert canonical_corpus(payloads) == canonical_corpus(payloads + payloads)

    def test_scheduler_corpus_reads_are_order_independent(self, registry, mutator):
        """Two schedulers remembering the same frames in opposite orders
        re-mutate the same seeds."""
        from repro.core.mutation import MutationOperator, TestCase
        from repro.zwave.application import ApplicationPayload

        cases = [
            TestCase(ApplicationPayload(0x5A, cmd, bytes([cmd])), MutationOperator.SEED, 1)
            for cmd in range(1, 7)
        ]
        left = _scheduler(registry, mutator, MetricsCollector(), 0)
        right = _scheduler(registry, mutator, MetricsCollector(), 0)
        for case in cases:
            left._remember(0x5A, case)
        for case in reversed(cases):
            right._remember(0x5A, case)
        assert left.corpus_payloads(0x5A) == right.corpus_payloads(0x5A)
        assert left.corpus_size() == right.corpus_size()


def _synthetic_result(seed):
    """A minimal campaign result with seeded scheduler wire fields."""
    rng = random.Random(seed)
    scheduler = rng.choice(SCHEDULERS)
    trace = tuple(
        (rng.randrange(256), round(rng.uniform(10.0, 150.0), 6),
         rng.choice(("probe", "explore", "exploit")))
        for _ in range(rng.randrange(0, 20))
    )
    return CampaignResult(
        device="D1",
        mode=Mode.FULL,
        duration=600.0,
        properties=None,
        fuzz=FuzzResult(),
        scheduler=scheduler,
        scheduler_trace=trace if scheduler == "coverage" else (),
    )


class TestWireFixpoint:
    """Wire v4 scheduler fields round-trip byte-for-byte."""

    @pytest.mark.parametrize("seed", range(WIRE_SEEDS))
    def test_roundtrip_is_a_fixpoint(self, seed):
        """to_wire ∘ from_wire ∘ to_wire is the identity on bytes."""
        result = _synthetic_result(seed)
        wire = campaign_to_wire(result)
        rebuilt = campaign_from_wire(wire)
        assert rebuilt.scheduler == result.scheduler
        assert rebuilt.scheduler_trace == result.scheduler_trace
        assert dumps_wire(campaign_to_wire(rebuilt)) == dumps_wire(wire)


class TestSerialParallelIdentity:
    """--scheduler coverage is byte-identical at every worker count."""

    def test_coverage_trials_serial_equals_workers_2(self):
        """Two 600 s coverage trials shard to the same bytes."""
        kwargs = dict(
            device="D1",
            mode=Mode.FULL,
            n_trials=2,
            duration=600.0,
            base_seed=0,
            scheduler="coverage",
        )
        serial = run_trials(workers=1, **kwargs)
        sharded = run_trials(workers=2, **kwargs)
        assert not serial.failures and not sharded.failures
        assert len(serial.trials) == len(sharded.trials) == 2
        for left, right in zip(serial.trials, sharded.trials):
            assert left.scheduler == right.scheduler == "coverage"
            assert dumps_wire(campaign_to_wire(left)) == dumps_wire(
                campaign_to_wire(right)
            )


class TestStaticTieBreak:
    """Satellite 3: static prioritisation uses an explicit total key."""

    def test_equal_scores_order_by_ascending_identifier(self, registry):
        """CMDCLs sharing a command count sort by id, not dict order."""
        known = [c for c in range(0x01, 0x100) if registry.get(c) is not None]
        by_count = {}
        for cmdcl in known:
            by_count.setdefault(registry.command_count(cmdcl), []).append(cmdcl)
        ties = {count: ids for count, ids in by_count.items() if len(ids) > 1}
        assert ties, "registry has no tied command counts to regress against"
        order = prioritize_static(registry, known)
        for ids in ties.values():
            positions = [order.index(c) for c in sorted(ids)]
            assert positions == sorted(positions)

    @pytest.mark.parametrize("seed", range(20))
    def test_priority_is_input_order_independent(self, registry, seed):
        """Shuffling the input set never changes the output queue."""
        known = [c for c in range(0x01, 0x100) if registry.get(c) is not None]
        shuffled = list(known)
        random.Random(seed).shuffle(shuffled)
        assert prioritize_static(registry, shuffled) == prioritize_static(
            registry, known
        )

    def test_key_matches_registry_prioritize(self, registry):
        """The hoisted key reproduces the registry ordering exactly."""
        cmdcls = [c for c in range(0x01, 0x100) if registry.get(c) is not None]
        cmdcls += [0xEE, 0xDD]  # schema-less classes follow, ascending
        assert prioritize_static(registry, cmdcls) == registry.prioritize(cmdcls)
        a, b = 0x59, 0x5A
        assert registry.command_count(a) >= 0 and static_priority_key(
            registry, a
        ) != static_priority_key(registry, b)

    def test_mutation_and_scheduler_pass_determinism_lint(self):
        """D103/D104 stay clean in the modules owning the ordering."""
        from repro.lint.determinism import DeterminismAnalyzer
        from repro.lint.runner import run_lint

        core = Path(__file__).resolve().parents[1] / "src" / "repro" / "core"
        report = run_lint(root=core, analyzers=[DeterminismAnalyzer()])
        flagged = [
            f
            for f in report.findings
            if f.rule in ("D103", "D104")
            and Path(f.path).name in ("mutation.py", "scheduler.py")
        ]
        assert flagged == []
