"""Phase 3 — position-sensitive mutation (Section III-D, Table I).

The mutator understands the Figure 6 hierarchy: the CMDCL at position 0 is
only ever replaced with *valid* (supported) classes, the CMD at position 1
and the PARAMs at positions 2..n receive the full operator set of Table I
(rand valid / rand invalid / arith / interesting / insert), and the MAC
header fields receive **no** mutation at all — the input-space reduction
the paper motivates with the 2^512 argument.

Generation for one command class proceeds in stages so that bug-bearing
payloads appear early in a fuzzing window:

0. the Algorithm-1 seed ``[CMDCL, 0x00, 0x00]``;
1. a fully valid build of every defined command (semantic mutation);
2. per-command variants, round-robin interleaved across commands —
   semantic enum cycling first, then boundary values, then illegal and
   interesting values, then length boundaries (truncations/inserts);
3. an undefined-command sweep over a fixed identifier range;
4. an endless random tail for long campaigns.

Stages 0-3 draw no randomness: they are compiled once per process per
registry (:func:`compiled_prefix`) and replayed by every mutator.  Only
the stage-4 tail runs live, from the mutator's own rng.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from enum import Enum
from typing import Dict, Iterable, Iterator, Optional, Tuple

from ..obs import metrics as obs
from ..zwave.application import ApplicationPayload, build_valid_payload
from ..zwave.cmdclass import Command, CommandClass, ParamKind
from ..zwave.registry import SpecRegistry


def static_priority_key(registry: SpecRegistry, cmdcl: int) -> Tuple[int, int]:
    """The explicit, total static-priority sort key for one CMDCL.

    Richer classes (more defined commands) come first; classes sharing a
    command count break the tie on ascending class identifier.  The key
    is total — no two distinct CMDCLs compare equal — so the resulting
    order can never fall back to dict/set iteration order, which Python
    does not guarantee across insertion histories.
    """
    return (-registry.command_count(cmdcl), cmdcl)


def prioritize_static(registry: SpecRegistry, cmdcls: Iterable[int]) -> Tuple[int, ...]:
    """Order *cmdcls* by the static fuzzing priority of Section III-C.

    Known classes sort by :func:`static_priority_key`; schema-less
    classes follow, by ascending identifier.  This is the single ordering
    every static campaign queue flows through — the seeded tie-break
    regression test in ``tests/test_scheduler_properties.py`` pins it.
    """
    known = sorted(
        (c for c in cmdcls if registry.get(c) is not None),
        key=lambda c: static_priority_key(registry, c),
    )
    unknown = sorted(c for c in cmdcls if registry.get(c) is None)
    return tuple(known + unknown)


class MutationOperator(Enum):
    """Operators of Table I (plus the boundary-testing length operators)."""

    SEED = "seed"
    RAND_VALID = "rand_valid"
    RAND_INVALID = "rand_invalid"
    ARITH = "arith"
    INTERESTING = "interesting"
    INSERT = "insert"
    TRUNCATE = "truncate"
    RANDOM = "random"
    CORPUS = "corpus"


#: Table I verbatim: which operators apply to which Z-Wave frame field.
FIELD_OPERATORS = {
    "H-ID": (),
    "SRC": (),
    "P1": (),
    "P2": (),
    "LEN": (),
    "DST": (),
    "CMDCL": (MutationOperator.RAND_VALID,),
    "CMD": (
        MutationOperator.RAND_VALID,
        MutationOperator.RAND_INVALID,
        MutationOperator.ARITH,
        MutationOperator.INTERESTING,
        MutationOperator.INSERT,
    ),
    "PARAM": (
        MutationOperator.RAND_VALID,
        MutationOperator.RAND_INVALID,
        MutationOperator.ARITH,
        MutationOperator.INTERESTING,
        MutationOperator.INSERT,
    ),
    "CS": (),
}

#: Classic boundary-adjacent byte values.
INTERESTING_VALUES: Tuple[int, ...] = (0x00, 0x01, 0x7F, 0x80, 0xFE, 0xFF)

#: Undefined-command sweep range shared by all classes (27 identifiers).
#: Together with the 25 defined command identifiers of the 45 controller
#: classes and Algorithm 1's 0x00 seed this exercises the 53 distinct CMD
#: values Table V reports.
INVALID_CMD_SWEEP: Tuple[int, ...] = tuple(range(0x18, 0x33))

#: Stage 2 cycles each enum parameter through at most this many of its
#: legal values (the first ones); the rest of a longer enum is not tried.
ENUM_EXPANSION_LIMIT = 8


@dataclass(frozen=True)
class TestCase:
    """One generated fuzzing input with its provenance."""

    payload: ApplicationPayload
    operator: MutationOperator
    position: int  # hierarchy position mutated (0 CMDCL, 1 CMD, 2+ PARAM)
    note: str = ""

    def encode(self) -> bytes:
        return self.payload.encode()


def _deterministic_prefix(registry: SpecRegistry, cmdcl: int) -> Iterator[TestCase]:
    """Stages 0-3: everything before the endless seeded tail."""
    cls = registry.get(cmdcl)
    yield TestCase(
        ApplicationPayload(cmdcl, 0x00, b"\x00"),
        MutationOperator.SEED,
        1,
        "Algorithm 1 initial semi-valid packet",
    )
    if cls is None or not cls.commands:
        return
    yield from _valid_builds(registry, cls)
    yield from _interleaved_variants(registry, cls)
    yield from _invalid_cmd_sweep(cls)


# -- stage 1: semantic valid builds --------------------------------------------


def _valid_builds(registry: SpecRegistry, cls: CommandClass) -> Iterator[TestCase]:
    for cmd in sorted(cls.commands, key=lambda c: c.id):
        payload = build_valid_payload(registry, cls.id, cmd.id)
        yield TestCase(
            payload,
            MutationOperator.RAND_VALID,
            1,
            f"valid build of {cmd.name}",
        )


# -- stage 2: per-command variants, stage-major order --------------------------


def _interleaved_variants(registry: SpecRegistry, cls: CommandClass) -> Iterator[TestCase]:
    """All commands' variants, one mutation *stage* at a time.

    Stage-major ordering makes the highest-signal mutations of every
    command land early in a C_T window: all enum cycling first, then
    all range boundaries, then all illegal/interesting values, then all
    length boundaries — instead of exhausting one command before
    touching the next.
    """
    commands = sorted(cls.commands, key=lambda c: c.id)
    bases = {
        cmd.id: build_valid_payload(registry, cls.id, cmd.id)
        for cmd in commands
    }
    for stage in (_stage_enums, _stage_boundaries, _stage_illegal, _stage_lengths):
        for cmd in commands:
            yield from stage(bases[cmd.id], cmd)


def _stage_enums(base: ApplicationPayload, cmd: Command) -> Iterator[TestCase]:
    """Semantic legal-value cycling: the highest-signal mutation —
    legal values steer stateful handlers down distinct code paths."""
    for param in cmd.params:
        if param.kind is ParamKind.ENUM:
            values = param.enum_values[:ENUM_EXPANSION_LIMIT]
        elif param.kind is ParamKind.NODE_ID:
            values = (1, 2, 232)
        else:
            continue
        for value in values:
            yield _replace(base, param.position, value, MutationOperator.RAND_VALID, cmd)


def _stage_boundaries(base: ApplicationPayload, cmd: Command) -> Iterator[TestCase]:
    """Boundary values and arithmetic neighbours for ranged params."""
    for param in cmd.params:
        if param.kind is not ParamKind.RANGE:
            continue
        for value in sorted({param.low, param.high, min(param.low + 1, 0xFF), max(param.high - 1, 0)}):
            yield _replace(base, param.position, value, MutationOperator.ARITH, cmd)


def _stage_illegal(base: ApplicationPayload, cmd: Command) -> Iterator[TestCase]:
    """Illegal domain values and classic interesting bytes."""
    for param in cmd.params:
        illegal = param.illegal_values()
        if illegal:
            picks = {illegal[0], illegal[-1], illegal[len(illegal) // 2]}
            for value in sorted(picks):
                yield _replace(base, param.position, value, MutationOperator.RAND_INVALID, cmd)
    for param in cmd.params:
        for value in INTERESTING_VALUES:
            if param.is_legal(value):
                continue
            yield _replace(base, param.position, value, MutationOperator.INTERESTING, cmd)


def _stage_lengths(base: ApplicationPayload, cmd: Command) -> Iterator[TestCase]:
    """Length boundaries: truncations (minimum-length boundary) and
    trailing inserts (maximum-length boundary) — missing-validation
    bugs concentrate here."""
    for keep in range(len(cmd.params) - 1, -1, -1):
        yield TestCase(
            base.truncate_params(keep),
            MutationOperator.TRUNCATE,
            2 + keep,
            f"{cmd.name} truncated to {keep} parameter(s)",
        )
    extended = base
    for extra in (0x00, 0xFF):
        extended = extended.append_param(extra)
        yield TestCase(
            extended,
            MutationOperator.INSERT,
            2 + len(extended.params) - 1,
            f"{cmd.name} with trailing 0x{extra:02X}",
        )


def _replace(
    base: ApplicationPayload,
    position: int,
    value: int,
    operator: MutationOperator,
    cmd: Command,
) -> TestCase:
    hierarchy_position = 2 + position
    return TestCase(
        base.replace_at(hierarchy_position, value),
        operator,
        hierarchy_position,
        f"{cmd.name} param[{position}] <- 0x{value:02X}",
    )


# -- stage 3: undefined-command sweep -------------------------------------------------


def _invalid_cmd_sweep(cls: CommandClass) -> Iterator[TestCase]:
    defined = set(cls.command_ids())
    for cmd_id in INVALID_CMD_SWEEP:
        if cmd_id in defined:
            continue
        yield TestCase(
            ApplicationPayload(cls.id, cmd_id, b"\x00\x00"),
            MutationOperator.RAND_INVALID,
            1,
            f"undefined command 0x{cmd_id:02X}",
        )


# -- the compiled stage 0-3 table ----------------------------------------------

#: Counter names, built once: a case books ``mutation.generated`` plus the
#: field class of its hierarchy position and its operator.
_GENERATED = "mutation.generated"
#: Indexed by ``min(position, 2)``: the Figure 6 field class (0 CMDCL,
#: 1 CMD, 2+ PARAM).
_FIELD_COUNTERS: Tuple[str, ...] = (
    "mutation.field.cmdcl",
    "mutation.field.cmd",
    "mutation.field.param",
)
_OPERATOR_COUNTERS: Dict[MutationOperator, str] = {
    op: f"mutation.operator.{op.value}" for op in MutationOperator
}
#: Every rng-tail case is a RANDOM draw at one fixed position (CMD for
#: the PSM tails, CMDCL for :class:`RandomMutator`).
_RANDOM_COUNTER = _OPERATOR_COUNTERS[MutationOperator.RANDOM]

#: One compiled stage 0-3 case: the case and the two counter names it
#: books besides ``mutation.generated``.
PrefixEntry = Tuple[TestCase, str, str]

#: The process-wide compiled prefixes: registry -> cmdcl -> entries.
#: Keyed on the registry object itself (weakly, so a discarded registry
#: takes its table with it) and filled lazily, one class at a time.
_COMPILED: "weakref.WeakKeyDictionary[SpecRegistry, Dict[int, Tuple[PrefixEntry, ...]]]" = (
    weakref.WeakKeyDictionary()
)


def compiled_prefix(registry: SpecRegistry, cmdcl: int) -> Tuple[PrefixEntry, ...]:
    """The stage 0-3 cases of *cmdcl* under *registry*, built once per process.

    Stages 0-3 are a pure function of ``(registry, cmdcl)`` and draw
    nothing from an rng, so every mutator on the same registry — every
    campaign in a process, every job in a served worker — replays the
    same immutable cases.  Each ``ApplicationPayload`` memoises its wire
    bytes, so a replayed case is not encoded again either.
    """
    table = _COMPILED.get(registry)
    if table is None:
        table = _COMPILED[registry] = {}
    prefix = table.get(cmdcl)
    if prefix is None:
        prefix = table[cmdcl] = tuple(
            (case, _FIELD_COUNTERS[min(case.position, 2)], _OPERATOR_COUNTERS[case.operator])
            for case in _deterministic_prefix(registry, cmdcl)
        )
    return prefix


def _book(field: str, operator: str) -> None:
    """Count one consumed case under its precomputed counter names."""
    obs.inc(_GENERATED)
    obs.inc(field)
    obs.inc(operator)


class PositionSensitiveMutator:
    """Generates :class:`TestCase` streams for one command class at a time."""

    def __init__(self, registry: SpecRegistry, rng: Optional[random.Random] = None):
        self._registry = registry
        self._rng = rng or random.Random(0)

    # -- public API ------------------------------------------------------------

    def generate(self, cmdcl: int) -> Iterator[TestCase]:
        """Yield test cases for *cmdcl*, highest-signal stages first.

        Stages 0-3 replay :func:`compiled_prefix`; only the endless stage-4
        tail runs live, and it is the sole rng consumer, so draw order
        does not depend on whether the prefix was already compiled.  Each
        case is counted as it is consumed, so a window cut short books
        only what it sent.
        """
        for case, field, operator in compiled_prefix(self._registry, cmdcl):
            _book(field, operator)
            yield case
        cls = self._registry.get(cmdcl)
        yield from self._random_tail(cmdcl, () if cls is None else cls.command_ids())

    def prefix_length(self, cmdcl: int) -> int:
        """How many deterministic (stage 0-3) cases *cmdcl* yields.

        A pure function of ``(registry, cmdcl)`` — the coverage
        scheduler's energy model reads it to keep assigning windows until
        every class's bug-bearing deterministic stages have drained.
        """
        return len(compiled_prefix(self._registry, cmdcl))

    # -- stage 4: endless random tail ---------------------------------------------------------

    def _random_tail(self, cmdcl: int, command_ids: Tuple[int, ...]) -> Iterator[TestCase]:
        # Position-sensitive to the end: even the long-haul tail draws the
        # command byte from the defined identifiers or the bounded
        # undefined-command neighbourhood, never from uniform garbage.  A
        # class with no schema has only the neighbourhood.
        while True:
            if command_ids and self._rng.random() < 0.8:
                cmd_id = self._rng.choice(command_ids)
            else:
                cmd_id = self._rng.choice(INVALID_CMD_SWEEP)
            count = self._rng.randrange(0, 5)
            params = bytes(self._rng.randrange(256) for _ in range(count))
            _book(_FIELD_COUNTERS[1], _RANDOM_COUNTER)
            yield TestCase(
                ApplicationPayload(cmdcl, cmd_id, params),
                MutationOperator.RANDOM,
                1,
                "random tail",
            )


class RandomMutator:
    """The ZCover-γ ablation: no properties, no positions, just bytes.

    "Selected CMDCLs, CMD, and PARAM values randomly without considering
    ZCover core features" (Section IV-D).
    """

    def __init__(self, rng: Optional[random.Random] = None):
        self._rng = rng or random.Random(0)

    def generate(self) -> Iterator[TestCase]:
        """Yield uniformly random (cmdcl, cmd, params) test cases forever."""
        while True:
            cmdcl = self._rng.randrange(256)
            cmd = self._rng.randrange(256)
            count = self._rng.randrange(0, 5)
            params = bytes(self._rng.randrange(256) for _ in range(count))
            _book(_FIELD_COUNTERS[0], _RANDOM_COUNTER)
            yield TestCase(
                ApplicationPayload(cmdcl, cmd, params),
                MutationOperator.RANDOM,
                0,
                "random cmdcl/cmd/params",
            )
