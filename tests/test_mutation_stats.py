"""Statistical regression suite for the position-sensitive mutator.

The perf pass caches the deterministic prefix of each CMDCL's case
stream and batches generation; these tests pin the *distribution* the
PSM emits over ~1k seeds so any rewrite that shifts the operator mix,
the seeded rng tail, or CMDCL prioritisation is caught even when no
single golden campaign happens to exercise the changed path.

Two layers:

- exact pinned tallies — the operator mix over the first N cases is a
  pure function of (cmdcl, N), identical for every seed, so it is
  asserted exactly (1000 seeds × pinned per-seed counts);
- chi-square gates — properties of the rng tail (command validity split,
  parameter-length spread) are compared against their *design*
  distributions with a p≈0.001 critical value, so the checks hold for
  any correct seeding but fail if the draw structure changes.
"""

import itertools
import random
from collections import Counter

import pytest

from repro.core.mutation import MutationOperator, PositionSensitiveMutator
from repro.zwave.registry import load_full_registry

SEEDS = range(1000)

#: Operator tallies for the first 64 cases of BASIC (0x20), summed over
#: 1000 seeds.  The stream's operator sequence is seed-independent (the
#: rng perturbs payload contents, never the operator schedule), so these
#: are exact — divisible by the seed count.
EXPECTED_BASIC_MIX = {
    MutationOperator.SEED: 1_000,
    MutationOperator.RAND_VALID: 3_000,
    MutationOperator.RAND_INVALID: 27_000,
    MutationOperator.INSERT: 6_000,
    MutationOperator.TRUNCATE: 2_000,
    MutationOperator.RANDOM: 25_000,
}

#: Same for a class with no schema (0xEE), first 96 cases: the seed case,
#: then the rng tail over the undefined-command neighbourhood.
EXPECTED_UNKNOWN_MIX = {
    MutationOperator.SEED: 1_000,
    MutationOperator.RANDOM: 95_000,
}

#: chi-square critical values at p≈0.001.
CHI2_CRIT_DF1 = 10.83
CHI2_CRIT_DF4 = 18.47


@pytest.fixture(scope="module")
def registry():
    return load_full_registry()


def _chi_square(observed, expected):
    return sum(
        (observed.get(k, 0) - expected[k]) ** 2 / expected[k] for k in expected
    )


def _first_cases(registry, cmdcl, count, seed):
    mutator = PositionSensitiveMutator(registry, random.Random(seed))
    return list(itertools.islice(mutator.generate(cmdcl), count))


class TestOperatorMix:
    def test_basic_mix_pinned_over_seeds(self, registry):
        tally = Counter()
        for seed in SEEDS:
            for case in _first_cases(registry, 0x20, 64, seed):
                tally[case.operator] += 1
        assert dict(tally) == EXPECTED_BASIC_MIX

    def test_unknown_class_mix_pinned_over_seeds(self, registry):
        tally = Counter()
        for seed in SEEDS:
            for case in _first_cases(registry, 0xEE, 96, seed):
                tally[case.operator] += 1
        assert dict(tally) == EXPECTED_UNKNOWN_MIX

    def test_mix_is_seed_independent(self, registry):
        """Any two seeds schedule identical operators, case for case."""
        ops_a = [c.operator for c in _first_cases(registry, 0x20, 64, 1)]
        ops_b = [c.operator for c in _first_cases(registry, 0x20, 64, 999)]
        assert ops_a == ops_b


class TestRngTail:
    """The seeded random tail keeps its design distribution."""

    @pytest.fixture(scope="class")
    def tail_cases(self, registry):
        cases = []
        for seed in SEEDS:
            cases.extend(
                c
                for c in _first_cases(registry, 0x20, 64, seed)
                if c.operator is MutationOperator.RANDOM
            )
        return cases

    def test_command_validity_split(self, registry, tail_cases):
        """~80% of tail commands are valid for the class (design prob 0.8)."""
        valid_cmds = set(registry.get(0x20).command_ids())
        observed = Counter(
            "valid" if c.payload.cmd in valid_cmds else "invalid"
            for c in tail_cases
        )
        total = len(tail_cases)
        expected = {"valid": total * 0.8, "invalid": total * 0.2}
        assert _chi_square(observed, expected) < CHI2_CRIT_DF1

    def test_param_length_spread(self, tail_cases):
        """Tail parameter lengths are uniform over 0..4 (randrange(0, 5))."""
        observed = Counter(len(c.payload.params) for c in tail_cases)
        total = len(tail_cases)
        expected = {length: total / 5 for length in range(5)}
        assert set(observed) <= set(expected)
        assert _chi_square(observed, expected) < CHI2_CRIT_DF4

    def test_tail_differs_between_seeds(self, registry):
        """The tail is seeded — different seeds, different payloads."""
        tail_a = [
            c.encode()
            for c in _first_cases(registry, 0x20, 64, 1)
            if c.operator is MutationOperator.RANDOM
        ]
        tail_b = [
            c.encode()
            for c in _first_cases(registry, 0x20, 64, 2)
            if c.operator is MutationOperator.RANDOM
        ]
        assert tail_a != tail_b

    def test_tail_reproducible_per_seed(self, registry):
        cases_a = [c.encode() for c in _first_cases(registry, 0x20, 64, 42)]
        cases_b = [c.encode() for c in _first_cases(registry, 0x20, 64, 42)]
        assert cases_a == cases_b


class TestPrioritisation:
    def test_order_invariant_under_shuffles(self, registry):
        """1000 seeded input shuffles map to one prioritised order."""
        ids = [c.id for c in registry]
        baseline = tuple(registry.prioritize(ids))
        orders = set()
        for seed in SEEDS:
            shuffled = ids[:]
            random.Random(seed).shuffle(shuffled)
            orders.add(tuple(registry.prioritize(shuffled)))
        assert orders == {baseline}

    def test_order_prefix_pinned(self, registry):
        """The densest classes lead, exactly as the pre-rewrite order."""
        order = registry.prioritize([c.id for c in registry])
        assert list(order[:6]) == [0x34, 0x01, 0x67, 0x63, 0x9F, 0x98]
