"""Tests for the position-sensitive mutator (Table I / Section III-D)."""

import collections
import itertools
import random

import pytest

from repro.core.mutation import (
    FIELD_OPERATORS,
    INTERESTING_VALUES,
    INVALID_CMD_SWEEP,
    MutationOperator,
    PositionSensitiveMutator,
    RandomMutator,
)
from repro.obs.metrics import MetricsCollector, collecting
from repro.zwave.application import Validity, validate_payload
from repro.zwave.registry import SpecRegistry


def take(iterator, n):
    return list(itertools.islice(iterator, n))


@pytest.fixture
def mutator(full_registry):
    return PositionSensitiveMutator(full_registry, random.Random(0))


class TestTableIOperatorAssignment:
    """Table I verbatim: MAC fields get nothing, APL fields get the set."""

    @pytest.mark.parametrize("field", ["H-ID", "SRC", "P1", "P2", "LEN", "DST", "CS"])
    def test_mac_fields_have_no_operators(self, field):
        assert FIELD_OPERATORS[field] == ()

    def test_cmdcl_only_rand_valid(self):
        assert FIELD_OPERATORS["CMDCL"] == (MutationOperator.RAND_VALID,)

    @pytest.mark.parametrize("field", ["CMD", "PARAM"])
    def test_cmd_and_param_get_full_set(self, field):
        ops = set(FIELD_OPERATORS[field])
        assert {
            MutationOperator.RAND_VALID,
            MutationOperator.RAND_INVALID,
            MutationOperator.ARITH,
            MutationOperator.INTERESTING,
            MutationOperator.INSERT,
        } <= ops

    def test_interesting_values_are_boundaries(self):
        assert 0x00 in INTERESTING_VALUES
        assert 0xFF in INTERESTING_VALUES
        assert 0x7F in INTERESTING_VALUES and 0x80 in INTERESTING_VALUES


class TestGenerationStructure:
    def test_first_case_is_algorithm1_seed(self, mutator):
        first = take(mutator.generate(0x20), 1)[0]
        assert first.operator is MutationOperator.SEED
        assert first.payload.encode() == b"\x20\x00\x00"

    def test_valid_builds_follow_seed(self, mutator, full_registry):
        cls = full_registry.require(0x20)
        cases = take(mutator.generate(0x20), 1 + cls.command_count)
        for case, cmd_id in zip(cases[1:], cls.command_ids()):
            assert case.payload.cmd == cmd_id
            assert validate_payload(case.payload, full_registry).validity is Validity.VALID

    def test_cmdcl_never_mutated_within_stream(self, mutator):
        for case in take(mutator.generate(0x59), 300):
            assert case.payload.cmdcl == 0x59

    def test_stream_is_infinite(self, mutator):
        assert len(take(mutator.generate(0x5A), 2000)) == 2000

    def test_invalid_cmd_sweep_present(self, mutator):
        cases = take(mutator.generate(0x5A), 300)
        swept = {c.payload.cmd for c in cases if c.operator is MutationOperator.RAND_INVALID}
        assert set(INVALID_CMD_SWEEP) <= swept

    def test_truncations_generated(self, mutator):
        cases = take(mutator.generate(0x73), 300)
        truncated = [c for c in cases if c.operator is MutationOperator.TRUNCATE]
        assert truncated
        # POWERLEVEL_TEST_NODE_SET (4 params) truncated to 0..3 params.
        lengths = {
            len(c.payload.params) for c in truncated if c.payload.cmd == 0x04
        }
        assert lengths == {0, 1, 2, 3}

    def test_inserts_extend_payloads(self, mutator, full_registry):
        cases = take(mutator.generate(0x20), 200)
        inserted = [c for c in cases if c.operator is MutationOperator.INSERT]
        assert inserted
        cmd = full_registry.command(0x20, inserted[0].payload.cmd)
        assert len(inserted[0].payload.params) > len(cmd.params)

    def test_enum_cycling_covers_all_legal_values(self, mutator):
        # The NVM-write operation selector (bugs #01-#04/#12) must be swept.
        cases = take(mutator.generate(0x01), 400)
        op_values = {
            c.payload.params[1]
            for c in cases
            if c.payload.cmd == 0x0D and len(c.payload.params) >= 2
        }
        assert {0x00, 0x01, 0x02, 0x03, 0x04} <= op_values

    def test_illegal_values_generated_for_ranged_params(self, mutator):
        cases = take(mutator.generate(0x01), 600)
        illegal_masks = [
            c.payload.params[0]
            for c in cases
            if c.payload.cmd == 0x04
            and c.operator is MutationOperator.RAND_INVALID
            and c.payload.params
        ]
        assert any(v > 29 for v in illegal_masks)  # bug #14's trigger

    def test_deterministic_for_seed(self, full_registry):
        one = PositionSensitiveMutator(full_registry, random.Random(42))
        two = PositionSensitiveMutator(full_registry, random.Random(42))
        a = [c.payload.encode() for c in take(one.generate(0x86), 300)]
        b = [c.payload.encode() for c in take(two.generate(0x86), 300)]
        assert a == b

    def test_unknown_class_stream(self, full_registry):
        mutator = PositionSensitiveMutator(full_registry, random.Random(1))
        cases = take(mutator.generate(0xF7), 100)  # no schema anywhere
        assert all(c.payload.cmdcl == 0xF7 for c in cases)
        assert len(cases) == 100


class TestBugReachability:
    """Each Table III trigger shape must appear early in its class stream."""

    def find(self, mutator, cmdcl, predicate, limit=400):
        for i, case in enumerate(take(mutator.generate(cmdcl), limit)):
            if predicate(case.payload):
                return i
        return None

    def test_bug5_shape(self, mutator):
        index = self.find(mutator, 0x01, lambda p: p.cmd == 0x02)
        assert index is not None and index < 25

    def test_bug12_shape(self, mutator):
        index = self.find(
            mutator,
            0x01,
            lambda p: p.cmd == 0x0D and len(p.params) >= 2 and p.params[1] == 0x00,
        )
        assert index is not None and index < 25

    def test_bugs_1_to_4_shapes(self, mutator):
        for op in (0x01, 0x02, 0x03, 0x04):
            index = self.find(
                mutator,
                0x01,
                lambda p, op=op: p.cmd == 0x0D and len(p.params) >= 2 and p.params[1] == op,
            )
            assert index is not None and index < 80, hex(op)

    def test_bug6_shape(self, mutator):
        index = self.find(mutator, 0x9F, lambda p: p.cmd == 0x01 and not p.params)
        assert index is not None and index < 80

    def test_bug7_shape(self, mutator):
        index = self.find(mutator, 0x5A, lambda p: p.cmd == 0x01 and not p.params)
        assert index is not None and index < 10

    def test_bug10_shape(self, mutator):
        index = self.find(
            mutator, 0x86, lambda p: p.cmd == 0x13 and p.params and p.params[0] == 0x00
        )
        assert index is not None and index < 10

    def test_bug13_shape(self, mutator):
        index = self.find(
            mutator, 0x73, lambda p: p.cmd == 0x04 and len(p.params) < 4
        )
        assert index is not None and index < 80

    def test_bug14_shape(self, mutator):
        index = self.find(
            mutator, 0x01, lambda p: p.cmd == 0x04 and p.params and p.params[0] > 29
        )
        assert index is not None and index < 200


class TestRandomMutator:
    def test_uniform_space(self):
        cases = take(RandomMutator(random.Random(0)).generate(), 3000)
        cmdcls = {c.payload.cmdcl for c in cases}
        cmds = {c.payload.cmd for c in cases}
        assert len(cmdcls) > 200
        assert len(cmds) > 200

    def test_param_lengths_bounded(self):
        cases = take(RandomMutator(random.Random(1)).generate(), 500)
        assert all(len(c.payload.params) <= 4 for c in cases)

    def test_deterministic(self):
        a = [c.payload.encode() for c in take(RandomMutator(random.Random(7)).generate(), 100)]
        b = [c.payload.encode() for c in take(RandomMutator(random.Random(7)).generate(), 100)]
        assert a == b


def booked_counts(cases):
    """The ``mutation.*`` counters a consumed run of *cases* must book:
    one ``generated`` each, plus its Figure 6 field class and operator."""
    counts = collections.Counter()
    for case in cases:
        counts["mutation.generated"] += 1
        counts[f"mutation.field.{('cmdcl', 'cmd', 'param')[min(case.position, 2)]}"] += 1
        counts[f"mutation.operator.{case.operator.value}"] += 1
    return dict(counts)


def consume_counted(stream, k):
    collector = MetricsCollector()
    with collecting(collector):
        cases = take(stream, k)
    booked = {
        name: value
        for name, value in collector.snapshot().counters.items()
        if name.startswith("mutation.")
    }
    return cases, booked


class TestCompiledPrefix:
    """Stages 0-3 compile once per process per registry and are shared."""

    def test_mutators_share_prefix_cases(self, full_registry):
        one = PositionSensitiveMutator(full_registry, random.Random(1))
        two = PositionSensitiveMutator(full_registry, random.Random(2))
        n = one.prefix_length(0x86)
        a = take(one.generate(0x86), n)
        b = take(two.generate(0x86), n)
        assert all(x is y for x, y in zip(a, b))
        # The tails draw from each mutator's own rng.
        assert take(one.generate(0x86), n + 50)[n:] != take(two.generate(0x86), n + 50)[n:]

    def test_second_registry_gets_its_own_table(self, full_registry):
        twin = SpecRegistry(list(full_registry))
        shared = PositionSensitiveMutator(full_registry, random.Random(0))
        own = PositionSensitiveMutator(twin, random.Random(0))
        n = shared.prefix_length(0x20)
        assert own.prefix_length(0x20) == n
        a = take(shared.generate(0x20), n)
        b = take(own.generate(0x20), n)
        assert [c.encode() for c in a] == [c.encode() for c in b]
        assert not any(x is y for x, y in zip(a, b))

    @pytest.mark.parametrize("cmdcl", [0x01, 0x73, 0xF7])
    def test_prefix_length_agrees_before_and_after_generate(self, full_registry, cmdcl):
        registry = SpecRegistry(list(full_registry))  # a cold table
        mutator = PositionSensitiveMutator(registry, random.Random(0))
        before = mutator.prefix_length(cmdcl)
        cases = take(mutator.generate(cmdcl), before + 20)
        assert all(c.operator is not MutationOperator.RANDOM for c in cases[:before])
        assert all(c.operator is MutationOperator.RANDOM for c in cases[before:])
        assert mutator.prefix_length(cmdcl) == before
        assert PositionSensitiveMutator(registry).prefix_length(cmdcl) == before

    @pytest.mark.parametrize("cmdcl", [0x20, 0x01, 0xF7])
    @pytest.mark.parametrize("k", [0, 1, 7, 40, 400])
    def test_cut_stream_books_only_what_it_sent(self, full_registry, cmdcl, k):
        mutator = PositionSensitiveMutator(full_registry, random.Random(3))
        cases, booked = consume_counted(mutator.generate(cmdcl), k)
        assert len(cases) == k
        assert booked == booked_counts(cases)
        assert booked.get("mutation.generated", 0) == k

    def test_random_mutator_books_each_case(self):
        cases, booked = consume_counted(RandomMutator(random.Random(4)).generate(), 25)
        assert booked == booked_counts(cases)
        assert booked["mutation.field.cmdcl"] == booked["mutation.operator.random"] == 25
