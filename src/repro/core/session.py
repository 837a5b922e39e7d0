"""Stateful session fuzzing of the multi-frame protocol flows.

The PSM campaign (:mod:`repro.core.campaign`) mutates single application
frames; the protocol's richest attack surface is multi-frame state
machines — S0 key exchange downgrade (Crushing the Wave), the S2
ECDH/nonce bootstrap, inclusion/exclusion/replication ceremonies and OTA
firmware transfer.  This module models each of those flows as an explicit
state graph (:data:`FLOW_GRAPHS`), then drives seeded mutated *sequences*
against a lenient controller model: frames are reordered, dropped,
replayed, field-mutated at chosen states, or spliced with
downgrade/early-commit injections.

Determinism contract (the same one every other subsystem carries):

* a :class:`SessionSchedule` is a **pure function of (flow, plan, seed)**
  — every trial's mutation ops come from a generator seeded by
  :func:`~repro.faults.schedule.derive_seed` with a per-trial label, so
  trial *t* is identical whether or not trials ``0..t-1`` were compiled
  (horizon-prefix stability for free);
* the evaluator walk, the planted-oracle match
  (:func:`~repro.simulator.vulnerabilities.match_session_vulns`) and the
  per-flow energy loop consume no entropy at all, so a
  :class:`SessionResult` is a pure function of (device, flows, plan,
  seed);
* flows are independent shards: :func:`run_sessions` executes one
  :class:`~repro.core.parallel.CampaignUnit` per flow and merges in
  canonical flow order, so ``--workers N`` output is byte-identical to
  serial (the results ride wire v6, see :mod:`repro.core.resultio`).

Energy follows novelty: each flow runs batches of trials, starting with
the directed protocol-guided corpus (:data:`DIRECTED_ATTACKS`, which
doubles as the oracle's ground-truth reachability proof), then ε-greedy
style *explore*/*exploit* batches — a batch that grew the state×transition
coverage bitmap earns the next batch extra havoc ops.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field, replace
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from ..errors import CampaignError
from ..faults.schedule import derive_seed
from ..obs import metrics as obs
from ..obs.metrics import (
    MetricsCollector,
    MetricsSnapshot,
    collecting,
    coverage_key,
    merge_all,
    state_coverage_key,
)
from ..simulator.vulnerabilities import (
    SESSION_VULNS,
    SessionFrame,
    SessionVulnerability,
    match_session_vulns,
    session_vulns_for_flow,
)
from ..wire import decode, dumps_wire, encode, layout

#: Canonical flow order: unit submission, merge and report order.
FLOWS: Tuple[str, ...] = ("inclusion", "exclusion", "replication", "s0", "s2", "ota")

#: One frame on the session wire: (sender, cmdcl, cmd, params).
Event = Tuple[str, int, int, bytes]

#: Mutation operator vocabulary, in wire order.
OP_KINDS: Tuple[str, ...] = (
    "drop",
    "reorder",
    "replay",
    "mutate",
    "inject-downgrade",
    "inject-commit",
)

#: Energy-window reasons, mirroring the coverage scheduler's vocabulary.
REASON_PROBE = "probe"
REASON_EXPLORE = "explore"
REASON_EXPLOIT = "exploit"


# -- flow graphs ---------------------------------------------------------------


@dataclass(frozen=True)
class FlowStep:
    """One happy-path transition: ``src --frame--> dst``."""

    label: str
    src: str
    dst: str
    sender: str  # "ctrl" or "dev"
    cmdcl: int
    cmd: int
    params: bytes

    def event(self) -> Event:
        return (self.sender, self.cmdcl, self.cmd, self.params)

    def matches(self, sender: str, cmdcl: int, cmd: int) -> bool:
        return self.sender == sender and self.cmdcl == cmdcl and self.cmd == cmd


#: Compiled-table key: the walk's state plus the frame signature.
TransitionKey = Tuple[str, str, int, int]

#: Compiled-table entry: ``(mark, next_state, state_coverage_key, pair_key)``.
Transition = Tuple[str, str, str, str]


@dataclass(frozen=True)
class FlowGraph:
    """The explicit state graph of one multi-frame flow.

    ``downgrade`` and ``commit`` are the flow's injection templates: the
    frame an attacker splices in to weaken the exchange (non-zero scheme
    offer, escalated key grant, stale NIF, mid-transfer re-offer) and the
    frame that closes it prematurely (early TRANSFER_END / STATUS OK).

    ``happy`` and ``table`` are derived once by :func:`_graph`: the
    happy-path events, and the transition table over every state × every
    signature the graph defines (see :func:`_compile_table`).
    """

    name: str
    initial: str
    terminal: str
    steps: Tuple[FlowStep, ...]
    downgrade: Event
    commit: Event
    happy: Tuple[Event, ...] = field(compare=False, repr=False)
    table: Dict[TransitionKey, Transition] = field(compare=False, repr=False)


def _compile_table(
    name: str, steps: Tuple[FlowStep, ...], events: Sequence[Event]
) -> Dict[TransitionKey, Transition]:
    """The lenient walk of one graph, precomputed for every reachable input.

    The walk only ever sits in the initial state or a step's destination,
    and :func:`apply_ops` only emits the signatures of *events* — the
    happy path plus the injection templates (``mutate`` rewrites params
    alone) — so this table answers every frame a schedule can produce.
    Per ``(state, signature)``: the first step leaving *state* with that
    signature advances to its destination; otherwise the first step
    anywhere with it is an off-path acceptance ``"!<label>"``; otherwise
    the frame is unknown, ``"?"``.  Both coverage keys are built here, once.
    """
    states = dict.fromkeys([steps[0].src] + [step.dst for step in steps])
    table: Dict[TransitionKey, Transition] = {}
    for sender, cmdcl, cmd in dict.fromkeys(event[:3] for event in events):
        known = [step for step in steps if step.matches(sender, cmdcl, cmd)]
        pair_key = coverage_key(cmdcl, cmd)
        for state in states:
            on_path = [step for step in known if step.src == state]
            if on_path:
                mark = next_state = on_path[0].dst
            else:
                mark = f"!{known[0].label}" if known else "?"
                next_state = state
            table[(state, sender, cmdcl, cmd)] = (
                mark,
                next_state,
                state_coverage_key(name, state, mark),
                pair_key,
            )
    return table


def _graph(
    name: str,
    steps: Sequence[Tuple[str, str, str, str, int, int, bytes]],
    downgrade: Event,
    commit: Event,
) -> FlowGraph:
    flow_steps = tuple(FlowStep(*entry) for entry in steps)
    happy = tuple(step.event() for step in flow_steps)
    return FlowGraph(
        name=name,
        initial=flow_steps[0].src,
        terminal=flow_steps[-1].dst,
        steps=flow_steps,
        downgrade=downgrade,
        commit=commit,
        happy=happy,
        table=_compile_table(name, flow_steps, happy + (downgrade, commit)),
    )


#: The six modelled flows.  Frames follow the simulator's own encodings
#: (`simulator/inclusion.py`, `security/s0.py`, `security/s2.py`); payload
#: bytes that the real exchanges derive from crypto are fixed
#: representative values — the session layer fuzzes the *sequence*, not
#: the cipher.  The exclusion, replication and OTA graphs are the only
#: model of those ceremonies: the simulator runs none of them.
FLOW_GRAPHS: Dict[str, FlowGraph] = {
    "inclusion": _graph(
        "inclusion",
        [
            ("presentation", "idle", "presented", "ctrl", 0x01, 0x08, b"\x01"),
            ("nif", "presented", "nif_received", "dev", 0x01, 0x01, b"\x53\x03\x40\x03"),
            ("assign_id", "nif_received", "id_assigned", "ctrl", 0x01, 0x09, b"\x01\x04\x53"),
            ("transfer_end", "id_assigned", "done", "ctrl", 0x01, 0x0B, b"\x00"),
        ],
        downgrade=("dev", 0x01, 0x01, b"\x54\x03\x40\x03"),
        commit=("ctrl", 0x01, 0x0B, b"\x00"),
    ),
    "exclusion": _graph(
        "exclusion",
        [
            ("presentation", "idle", "presented", "ctrl", 0x01, 0x08, b"\x02"),
            ("nif", "presented", "nif_received", "dev", 0x01, 0x01, b"\x53\x03\x40\x03"),
            ("confirm", "nif_received", "done", "ctrl", 0x01, 0x0B, b"\x02"),
        ],
        downgrade=("dev", 0x01, 0x01, b"\x54\x03\x40\x03"),
        commit=("ctrl", 0x01, 0x0B, b"\x02"),
    ),
    "replication": _graph(
        "replication",
        [
            ("xfer_node_2", "idle", "transferring", "ctrl", 0x01, 0x09, b"\x00\x02\x80"),
            ("xfer_node_3", "transferring", "transferring", "ctrl", 0x01, 0x09, b"\x01\x03\x00"),
            ("xfer_node_4", "transferring", "transferring", "ctrl", 0x01, 0x09, b"\x02\x04\x80"),
            ("transfer_end", "transferring", "done", "ctrl", 0x01, 0x0B, b"\x00"),
        ],
        downgrade=("ctrl", 0x01, 0x09, b"\x00\x07\x80"),
        commit=("ctrl", 0x01, 0x0B, b"\x00"),
    ),
    "s0": _graph(
        "s0",
        [
            ("scheme_get", "idle", "scheme_requested", "ctrl", 0x98, 0x04, b"\x00"),
            ("scheme_report", "scheme_requested", "scheme_agreed", "dev", 0x98, 0x05, b"\x00"),
            ("nonce_report", "scheme_agreed", "nonce_issued", "dev", 0x98, 0x80, b"\xa1\xb2\xc3\xd4\xe5\xf6\x07\x18"),
            ("key_set", "nonce_issued", "key_transferred", "ctrl", 0x98, 0x81, b"\x06\x40\x12\x9b\x5d\x2e\x71\x0c\x88\x3f\xa4\x61\xd9\x0e\x57\xc2"),
            ("key_verify", "key_transferred", "done", "dev", 0x98, 0x07, b""),
        ],
        downgrade=("dev", 0x98, 0x05, b"\x01"),
        commit=("dev", 0x98, 0x07, b""),
    ),
    "s2": _graph(
        "s2",
        [
            ("kex_get", "idle", "kex_requested", "ctrl", 0x9F, 0x04, b""),
            ("kex_report", "kex_requested", "kex_reported", "dev", 0x9F, 0x05, b"\x00\x02\x01\x06"),
            ("kex_set", "kex_reported", "keys_granted", "ctrl", 0x9F, 0x06, b"\x00\x02\x01\x06"),
            ("pubkey_device", "keys_granted", "device_key_sent", "dev", 0x9F, 0x08, b"\x01\x7b\x2c\x91\x4e\xd0\x35\xaa\x68"),
            ("pubkey_ctrl", "device_key_sent", "ctrl_key_sent", "ctrl", 0x9F, 0x08, b"\x00\x19\xe4\x72\x0b\xc5\x8d\x36\xf1"),
            ("key_transfer", "ctrl_key_sent", "key_transferred", "ctrl", 0x9F, 0x03, b"\x00\x00\x51\x8e\x27\xb3\x6c\xd4\x09\xfa\x45\x92"),
            ("transfer_end", "key_transferred", "span_pending", "dev", 0x9F, 0x09, b"\x01"),
            ("span_nonce", "span_pending", "span_synced", "dev", 0x9F, 0x02, b"\x01\x5a\x0f\xc8\x33\x97\x6b\xe2\x1d\x84\x49\xd6\x2f\xb0\x7e\xa5\x10"),
            ("secure_frame", "span_synced", "done", "ctrl", 0x9F, 0x03, b"\x01\x00\x63\xb7\x1a\x8f\x40\xdd\x29\xe6\x52\x0b"),
        ],
        downgrade=("ctrl", 0x9F, 0x06, b"\x00\x02\x01\x87"),
        commit=("dev", 0x9F, 0x09, b"\x01"),
    ),
    "ota": _graph(
        "ota",
        [
            ("offer", "idle", "offered", "ctrl", 0x7A, 0x03, b"\x00\x01\x9a\x3c\x03"),
            ("accept", "offered", "accepted", "dev", 0x7A, 0x04, b"\xff"),
            ("pull", "accepted", "pulling", "dev", 0x7A, 0x05, b"\x03\x01"),
            ("frag_1", "pulling", "transferring", "ctrl", 0x7A, 0x06, b"\x01\xde\xad\xbe\xef\x01\x02"),
            ("frag_2", "transferring", "transferring", "ctrl", 0x7A, 0x06, b"\x02\xca\xfe\xba\xbe\x03\x04"),
            ("frag_3", "transferring", "transferring", "ctrl", 0x7A, 0x06, b"\x83\xfe\xed\xfa\xce\x05\x06"),
            ("status_ok", "transferring", "done", "dev", 0x7A, 0x07, b"\xff\x00\x00"),
        ],
        downgrade=("ctrl", 0x7A, 0x03, b"\x00\x01\x12\x34\x03"),
        commit=("dev", 0x7A, 0x07, b"\xff\x00\x00"),
    ),
}


def flow_graph(flow: str) -> FlowGraph:
    """The state graph for *flow*, or :class:`CampaignError` if unknown."""
    try:
        return FLOW_GRAPHS[flow]
    except KeyError:
        raise CampaignError(
            f"unknown session flow {flow!r}; expected one of {', '.join(FLOWS)}"
        ) from None


def planted_vuln_ids(flows: Iterable[str] = FLOWS) -> Tuple[str, ...]:
    """The vuln ids of every planted session bug in the given flows."""
    wanted = set(flows)
    return tuple(v.vuln_id for v in SESSION_VULNS if v.flow in wanted)


# -- mutation ops --------------------------------------------------------------


@layout(row=True)
@dataclass(frozen=True)
class SessionOp:
    """One sequence mutation, applied to the evolving event list.

    Indices are taken modulo the current sequence length at application
    time, so any op is well-formed on any sequence — the schedule never
    needs to know what earlier ops did.
    """

    kind: str
    index: int = 0
    index2: int = 0
    byte_pos: int = 0
    xor: int = 0


def apply_ops(flow: str, ops: Sequence[SessionOp]) -> Tuple[Event, ...]:
    """The mutated event sequence: happy path of *flow* + *ops* in order."""
    graph = flow_graph(flow)
    events: List[Event] = list(graph.happy)
    for op in ops:
        n = len(events)
        if n == 0:
            break
        i = op.index % n
        if op.kind == "drop":
            if n > 1:
                del events[i]
        elif op.kind == "reorder":
            j = op.index2 % n
            events[i], events[j] = events[j], events[i]
        elif op.kind == "replay":
            events.insert(op.index2 % (n + 1), events[i])
        elif op.kind == "mutate":
            sender, cmdcl, cmd, params = events[i]
            if params:
                body = bytearray(params)
                body[op.byte_pos % len(body)] ^= (op.xor & 0xFF) or 0x01
                events[i] = (sender, cmdcl, cmd, bytes(body))
        elif op.kind == "inject-downgrade":
            events.insert(i, graph.downgrade)
        elif op.kind == "inject-commit":
            events.insert(i, graph.commit)
        else:
            raise CampaignError(f"unknown session op kind {op.kind!r}")
    return tuple(events)


# -- the directed corpus (oracle ground truth) ---------------------------------

#: One short mutation per planted bug that provably reaches it from the
#: happy path.  Doubles as the schedule's probe batch (protocol-guided
#: seeds, ThreadFuzzer-style) and as the reachability half of the oracle
#: ground-truth contract (`tests/test_session_oracle.py`).
DIRECTED_ATTACKS: Dict[str, Tuple[SessionOp, ...]] = {
    # S0: flip the scheme offer to a non-zero scheme; the key still ships.
    "SV01": (SessionOp("mutate", index=1, byte_pos=0, xor=0x01),),
    # S0: replay the nonce report and the encapsulation consuming it.
    "SV02": (
        SessionOp("replay", index=2, index2=5),
        SessionOp("replay", index=3, index2=6),
    ),
    # S0: replay the key-set encapsulation after NETWORK_KEY_VERIFY.
    "SV03": (SessionOp("replay", index=3, index2=5),),
    # S2: grant key classes beyond the device's request (bit 0x81).
    "SV04": (SessionOp("mutate", index=2, byte_pos=3, xor=0x81),),
    # S2: append a second, different device public key.
    "SV05": (
        SessionOp("replay", index=3, index2=9),
        SessionOp("mutate", index=9, byte_pos=1, xor=0xFF),
    ),
    # S2: repeat the SPAN entropy, then another encapsulation.
    "SV06": (
        SessionOp("replay", index=7, index2=9),
        SessionOp("replay", index=8, index2=10),
    ),
    # Inclusion: append a divergent NIF after the ceremony closed.
    "SV07": (
        SessionOp("replay", index=1, index2=4),
        SessionOp("mutate", index=4, byte_pos=0, xor=0x07),
    ),
    # Exclusion: drop the presentation; the removal still commits.
    "SV08": (SessionOp("drop", index=0),),
    # Replication: drop TRANSFER_END; the records still persist.
    "SV09": (SessionOp("drop", index=3),),
    # Replication: reuse sequence 0 for a different node id.
    "SV10": (
        SessionOp("replay", index=0, index2=4),
        SessionOp("mutate", index=4, byte_pos=1, xor=0x05),
    ),
    # OTA: splice a fresh offer mid-transfer; fragments keep flowing.
    "SV11": (SessionOp("replay", index=0, index2=5),),
    # OTA: drop a fragment; STATUS OK still arrives.
    "SV12": (SessionOp("drop", index=4),),
}


def directed_corpus(flow: str) -> Tuple[Tuple[str, Tuple[SessionOp, ...]], ...]:
    """The ``(vuln_id, ops)`` probe corpus of one flow, in vuln-id order."""
    return tuple(
        (vuln.vuln_id, DIRECTED_ATTACKS[vuln.vuln_id])
        for vuln in session_vulns_for_flow(flow)
        if vuln.vuln_id in DIRECTED_ATTACKS
    )


# -- plans and schedules -------------------------------------------------------


def _require_count(name: str, value: object) -> None:
    """Plan counts are plain ints: a float or a bool would pass the range
    checks and only fail later, inside the schedule's ``randrange``."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise CampaignError(
            f"session plan: {name} must be an integer, got {type(value).__name__}"
        )


# validate() checks the weight pairs and names a bad one, so the codec
# carries them as plain arrays.
@layout(error=CampaignError, via={"weights": (Tuple[tuple, ...], tuple, tuple)})
@dataclass(frozen=True)
class SessionPlan:
    """Declarative knobs of a session campaign (the *what*, never the *when*).

    Like a :class:`~repro.faults.plan.FaultPlan`, a plan is inert data;
    all sequencing comes from compiling it with a seed into a
    :class:`SessionSchedule`.
    """

    name: str = "default"
    #: Trials per flow (raised to the directed-corpus size if smaller).
    trials: int = 24
    #: Trials per energy window after the probe batch.
    batch_trials: int = 4
    #: Inclusive bounds on random ops per trial.
    min_ops: int = 1
    max_ops: int = 3
    #: Extra havoc ops per trial inside an exploit window.
    exploit_boost: int = 1
    #: Weighted op-kind lottery for random trials.
    weights: Tuple[Tuple[str, int], ...] = (
        ("drop", 2),
        ("reorder", 2),
        ("replay", 3),
        ("mutate", 3),
        ("inject-downgrade", 1),
        ("inject-commit", 1),
    )
    #: Whether the directed corpus seeds the schedule's probe batch.
    directed_seeds: bool = True

    def validate(self) -> None:
        """Reject plans the schedule compiler cannot honour."""
        if not isinstance(self.name, str):
            raise CampaignError("session plan: name must be a string")
        for name in ("trials", "batch_trials", "min_ops", "max_ops", "exploit_boost"):
            _require_count(name, getattr(self, name))
        if not isinstance(self.directed_seeds, bool):
            raise CampaignError("session plan: directed_seeds must be a boolean")
        if self.trials <= 0:
            raise CampaignError("session plan: trials must be positive")
        if self.batch_trials <= 0:
            raise CampaignError("session plan: batch_trials must be positive")
        if not (1 <= self.min_ops <= self.max_ops):
            raise CampaignError("session plan: need 1 <= min_ops <= max_ops")
        if self.exploit_boost < 0:
            raise CampaignError("session plan: exploit_boost must be >= 0")
        if not self.weights:
            raise CampaignError("session plan: weights must be non-empty")
        for entry in self.weights:
            if not (
                isinstance(entry, (tuple, list))
                and len(entry) == 2
                and isinstance(entry[0], str)
            ):
                raise CampaignError(
                    f"session plan: each weight must be a [kind, weight] pair, got {entry!r}"
                )
            kind, weight = entry
            _require_count(f"weight for {kind!r}", weight)
            if kind not in OP_KINDS:
                raise CampaignError(f"session plan: unknown op kind {kind!r}")
            if weight <= 0:
                raise CampaignError(f"session plan: weight for {kind!r} must be > 0")


def default_session_plan() -> SessionPlan:
    """The stock plan `zcover sessions` runs without ``--trials`` overrides."""
    return SessionPlan()


def dumps_session_plan(plan: SessionPlan) -> str:
    """Canonical JSON encoding of *plan* (the cross-worker carrier)."""
    return dumps_wire(encode(plan))


def loads_session_plan(text: str) -> SessionPlan:
    """Decode and validate a plan from :func:`dumps_session_plan` text."""
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise CampaignError(f"session plan: not valid JSON: {exc}") from None
    plan = decode(SessionPlan, data, "session plan")
    plan.validate()
    return plan


def _weighted_kind(
    rng: random.Random, weights: Tuple[Tuple[str, int], ...], total: int
) -> str:
    roll = rng.randrange(total)
    for kind, weight in weights:
        if roll < weight:
            return kind
        roll -= weight
    return weights[-1][0]


def _random_op(rng: random.Random, kind: str, span: int) -> SessionOp:
    # One __dict__ fill instead of the frozen __init__'s five
    # object.__setattr__ calls; SessionOp has no __post_init__ to skip.
    op = object.__new__(SessionOp)
    op.__dict__.update(
        kind=kind,
        index=rng.randrange(span),
        index2=rng.randrange(span + 1),
        byte_pos=rng.randrange(16),
        xor=rng.randrange(1, 256),
    )
    return op


class SessionSchedule:
    """The compiled per-flow trial stream: pure in ``(flow, plan, seed)``.

    Each trial draws from its own generator seeded with a per-trial label
    — ``derive_seed(seed, "session.<flow>.trial.<t>")`` — so trial *t* is
    the same whether it is compiled alone or as part of a longer horizon.
    """

    def __init__(self, flow: str, plan: SessionPlan, seed: int):
        plan.validate()
        self.flow = flow
        self.plan = plan
        self.seed = seed
        self.graph = flow_graph(flow)
        self.corpus = directed_corpus(flow) if plan.directed_seeds else ()
        self._weight_total = sum(weight for _, weight in plan.weights)
        self._span = len(self.graph.steps) + 2

    @property
    def total_trials(self) -> int:
        """Plan trials, raised so the probe corpus always fits."""
        return max(self.plan.trials, len(self.corpus))

    def trial_ops(self, trial: int) -> Tuple[SessionOp, ...]:
        """The mutation ops of trial *trial* (directed corpus first)."""
        if trial < len(self.corpus):
            return self.corpus[trial][1]
        rng = random.Random(
            derive_seed(self.seed, f"session.{self.flow}.trial.{trial}")
        )
        count = rng.randint(self.plan.min_ops, self.plan.max_ops)
        ops = []
        for _ in range(count):
            kind = _weighted_kind(rng, self.plan.weights, self._weight_total)
            ops.append(_random_op(rng, kind, self._span))
        return tuple(ops)

    def havoc_ops(self, trial: int) -> Tuple[SessionOp, ...]:
        """Extra exploit-window ops for trial *trial* (same purity rules)."""
        rng = random.Random(
            derive_seed(self.seed, f"session.{self.flow}.havoc.{trial}")
        )
        return tuple(
            _random_op(
                rng, _weighted_kind(rng, self.plan.weights, self._weight_total), self._span
            )
            for _ in range(self.plan.exploit_boost)
        )

    def trial_label(self, trial: int) -> Optional[str]:
        """``"directed:<vuln_id>"`` for probe trials, else ``None``."""
        if trial < len(self.corpus):
            return f"directed:{self.corpus[trial][0]}"
        return None

    def describe(self, trials: int = 8) -> dict:
        """A JSON-clean fingerprint of the schedule head.

        Pure data derived only from ``(flow, plan, seed)`` — the property
        suite asserts two compilations produce identical descriptions.
        """
        return {
            "flow": self.flow,
            "seed": self.seed,
            "plan": encode(self.plan),
            "trial_ops": [
                [encode(op) for op in self.trial_ops(t)] for t in range(trials)
            ],
            "labels": [self.trial_label(t) for t in range(trials)],
            "havoc_ops": [
                [encode(op) for op in self.havoc_ops(t)] for t in range(trials)
            ],
        }


# -- the evaluator -------------------------------------------------------------


class SessionEvaluation(NamedTuple):
    """One trace's walk through the flow graph, annotated for the oracle.

    A named tuple, like :class:`SessionFrame`: one is built per trial and
    it never rides the wire.
    """

    flow: str
    frames: Tuple[SessionFrame, ...]
    #: ``(state_before, mark)`` per frame; *mark* is the new state for
    #: on-path frames, ``"!<label>"`` for a known step arriving in the
    #: wrong state, ``"?"`` for a frame no step defines.
    transitions: Tuple[Tuple[str, str], ...]
    findings: Tuple[Tuple[SessionVulnerability, int], ...]
    final_state: str


def evaluate_trace(flow: str, events: Sequence[Event]) -> SessionEvaluation:
    """Walk *events* through the flow graph and match the planted oracle.

    The walk models a *lenient* controller: on-path frames advance the
    state, everything else is consumed without aborting — the planted
    predicates are exactly the acceptances a strict implementation would
    reject.  Each frame is one lookup in the graph's compiled table
    (:func:`_compile_table`); a signature the graph does not define is
    unknown (``"?"``) and leaves the state unchanged.  Per-frame coverage
    (both the ``flow@state>mark`` transition bitmap and the CMDCL×CMD
    bitmap) lands on the active obs collector in one call per trace.
    """
    graph = flow_graph(flow)
    table = graph.table
    state = graph.initial
    frames: List[SessionFrame] = []
    new_frame = tuple.__new__  # skips the named tuple's Python-level __new__
    transitions: List[Tuple[str, str]] = []
    keys: List[str] = []
    for sender, cmdcl, cmd, params in events:
        frames.append(new_frame(SessionFrame, (state, sender, cmdcl, cmd, params)))
        entry = table.get((state, sender, cmdcl, cmd))
        if entry is None:
            entry = (
                "?",
                state,
                state_coverage_key(flow, state, "?"),
                coverage_key(cmdcl, cmd),
            )
        mark, next_state, state_key, pair_key = entry
        transitions.append((state, mark))
        keys.append(state_key)
        keys.append(pair_key)
        state = next_state
    obs.cover_keys(keys)
    trace = tuple(frames)
    return SessionEvaluation(
        flow, trace, tuple(transitions), tuple(match_session_vulns(flow, trace)), state
    )


# -- results -------------------------------------------------------------------


@layout(row=True)
@dataclass(frozen=True)
class SessionBugRecord:
    """First discovery of one planted session bug (a wire row, W3xx)."""

    flow: str
    trial: int
    sequence_index: int
    vuln_id: str
    state: str


@layout(versioned=True, const=(("kind", "sessions"),))
@dataclass(frozen=True)
class SessionResult:
    """Everything one session campaign produced (wire v6, W3xx).

    ``trajectory`` is the mutation trajectory — one ``(flow, trial,
    label)`` entry per executed trial, where *label* is the directed
    vuln id or the ``+``-joined op kinds actually applied; the golden
    test pins it byte-for-byte.
    """

    device: str
    seed: int
    flows: Tuple[str, ...]
    trials_by_flow: Dict[str, int] = field(default_factory=dict)
    op_counts: Dict[str, int] = field(default_factory=dict)
    trajectory: Tuple[Tuple[str, int, str], ...] = ()
    bugs: Tuple[SessionBugRecord, ...] = ()
    energy_trace: Tuple[Tuple[str, int, str], ...] = ()
    metrics: Optional[MetricsSnapshot] = None

    @property
    def found_vuln_ids(self) -> Tuple[str, ...]:
        return tuple(sorted({bug.vuln_id for bug in self.bugs}))

    @property
    def total_trials(self) -> int:
        return sum(self.trials_by_flow.values())


def merge_session_results(results: Sequence[SessionResult]) -> SessionResult:
    """Fold per-flow shard results, in the given (canonical) order.

    Mirrors :func:`repro.core.trials.merge_trials`: the caller hands the
    shards in submission order, so the merged result is byte-identical to
    a serial run for any worker count.
    """
    if not results:
        raise CampaignError("merge_session_results: nothing to merge")
    head = results[0]
    for result in results[1:]:
        if result.device != head.device or result.seed != head.seed:
            raise CampaignError(
                "merge_session_results: mixed (device, seed) shards"
            )
    flows: Tuple[str, ...] = ()
    trials_by_flow: Dict[str, int] = {}
    op_counts: Dict[str, int] = {}
    trajectory: Tuple[Tuple[str, int, str], ...] = ()
    bugs: Tuple[SessionBugRecord, ...] = ()
    energy: Tuple[Tuple[str, int, str], ...] = ()
    for result in results:
        flows += result.flows
        for key, value in result.trials_by_flow.items():
            trials_by_flow[key] = trials_by_flow.get(key, 0) + value
        for key, value in result.op_counts.items():
            op_counts[key] = op_counts.get(key, 0) + value
        trajectory += result.trajectory
        bugs += result.bugs
        energy += result.energy_trace
    return SessionResult(
        device=head.device,
        seed=head.seed,
        flows=flows,
        trials_by_flow={k: trials_by_flow[k] for k in sorted(trials_by_flow)},
        op_counts={k: op_counts[k] for k in sorted(op_counts)},
        trajectory=trajectory,
        bugs=bugs,
        energy_trace=energy,
        metrics=merge_all(
            result.metrics for result in results if result.metrics is not None
        ),
    )


# -- the per-flow energy loop --------------------------------------------------


def run_session_flow(
    device: str,
    flow: str,
    seed: int = 0,
    plan: Optional[SessionPlan] = None,
) -> SessionResult:
    """Fuzz one flow: probe the directed corpus, then follow novelty.

    The first window replays the protocol-guided corpus (*probe*); each
    later window of ``plan.batch_trials`` trials runs as *exploit* (with
    ``plan.exploit_boost`` extra havoc ops per trial) when the previous
    window grew the state×transition bitmap, else as *explore*.  The
    whole loop is a pure function of ``(device, flow, plan, seed)``.
    """
    plan = plan or default_session_plan()
    plan.validate()
    schedule = SessionSchedule(flow, plan, derive_seed(seed, f"session.{device}"))
    collector = MetricsCollector()
    bugs: List[SessionBugRecord] = []
    seen_vulns = set()
    trajectory: List[Tuple[str, int, str]] = []
    op_counts: Dict[str, int] = {}
    energy_trace: List[Tuple[str, int, str]] = []
    # Per-trial tallies, booked once when the flow run ends: counters and
    # histograms are sums, so the snapshot is the same as booking per trial.
    ops_per_trial: Dict[int, int] = {}
    events_per_trial: Dict[int, int] = {}
    coverage_size = collector.coverage_size
    total = schedule.total_trials
    probe = len(schedule.corpus)
    trial = 0
    window_was_novel = False
    with collecting(collector):
        while trial < total:
            if trial < probe:
                reason, end = REASON_PROBE, probe
            elif window_was_novel:
                reason, end = REASON_EXPLOIT, min(trial + plan.batch_trials, total)
            else:
                reason, end = REASON_EXPLORE, min(trial + plan.batch_trials, total)
            novel = 0
            for t in range(trial, end):
                ops = schedule.trial_ops(t)
                if reason == REASON_EXPLOIT:
                    ops += schedule.havoc_ops(t)
                events = apply_ops(flow, ops)
                size_before = coverage_size()
                evaluation = evaluate_trace(flow, events)
                if coverage_size() > size_before:
                    novel += 1
                for vuln, index in evaluation.findings:
                    collector.inc(f"session.bugs.fired.{vuln.vuln_id}")
                    if vuln.vuln_id not in seen_vulns:
                        seen_vulns.add(vuln.vuln_id)
                        collector.inc("session.bugs.unique")
                        bugs.append(
                            SessionBugRecord(
                                flow=flow,
                                trial=t,
                                sequence_index=index,
                                vuln_id=vuln.vuln_id,
                                state=evaluation.frames[index].state,
                            )
                        )
                kinds = [op.kind for op in ops]
                label = schedule.trial_label(t) or ("+".join(kinds) if kinds else "happy")
                trajectory.append((flow, t, label))
                for kind in kinds:
                    op_counts[kind] = op_counts.get(kind, 0) + 1
                ops_per_trial[len(ops)] = ops_per_trial.get(len(ops), 0) + 1
                events_per_trial[len(events)] = events_per_trial.get(len(events), 0) + 1
            if novel:
                collector.inc("session.coverage_novel_trials", novel)
            collector.inc(f"session.energy.{flow}", end - trial)
            collector.inc(f"session.windows.{reason}")
            energy_trace.append((flow, end - trial, reason))
            window_was_novel = novel > 0
            trial = end
        collector.inc(
            f"session.transitions.{flow}", collector.covered_transitions(flow)
        )
    collector.inc("session.trials", total)
    for length, times in ops_per_trial.items():
        collector.observe("session.ops_per_trial", length, times)
    for length, times in events_per_trial.items():
        collector.observe("session.events_per_trial", length, times)
    return SessionResult(
        device=device,
        seed=seed,
        flows=(flow,),
        trials_by_flow={flow: total},
        op_counts={k: op_counts[k] for k in sorted(op_counts)},
        trajectory=tuple(trajectory),
        bugs=tuple(bugs),
        energy_trace=tuple(energy_trace),
        metrics=collector.snapshot(),
    )


def session_units(
    device: str,
    flows: Optional[Sequence[str]] = None,
    seed: int = 0,
    plan: Optional[SessionPlan] = None,
) -> "List[CampaignUnit]":
    """One :class:`~repro.core.parallel.CampaignUnit` per flow, in
    canonical flow order; validates the plan and every flow name."""
    from .parallel import CampaignUnit

    plan = plan or default_session_plan()
    plan.validate()
    chosen = tuple(flows) if flows else FLOWS
    for flow in chosen:
        flow_graph(flow)  # validates the name
    plan_json = dumps_session_plan(plan)
    return [
        CampaignUnit(
            device=device,
            seed=seed,
            kind="sessions",
            flow=flow,
            session_plan_json=plan_json,
        )
        for flow in chosen
    ]


def run_sessions(
    device: str,
    flows: Optional[Sequence[str]] = None,
    seed: int = 0,
    plan: Optional[SessionPlan] = None,
    workers: int = 1,
) -> SessionResult:
    """Fuzz every requested flow, sharded one unit per flow.

    Serial and pooled execution take the same unit path
    (:func:`repro.core.parallel.execute_units`), and pooled results cross
    the process boundary in wire form, so ``workers=N`` output is
    byte-identical to ``workers=1``.
    """
    from .parallel import execute_units

    units = session_units(device, flows, seed, plan)
    return merge_session_outcomes(execute_units(units, workers=workers))


def merge_session_outcomes(outcomes: Sequence[object]) -> SessionResult:
    """Merge per-flow executor outcomes; any failed flow fails the whole
    campaign, since a partial merge would change flow-union semantics."""
    results: List[SessionResult] = []
    for outcome in outcomes:
        if outcome.result is None:
            failure = outcome.failure.render() if outcome.failure else "unknown"
            raise CampaignError(f"session unit failed: {failure}")
        results.append(outcome.result)
    return merge_session_results(results)


def session_plan_with_trials(trials: Optional[int]) -> SessionPlan:
    """The stock plan, with the trial budget overridden when given."""
    base = default_session_plan()
    if trials is None:
        return base
    return replace(base, trials=trials)
