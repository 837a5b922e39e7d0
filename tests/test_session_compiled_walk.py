"""The compiled flow-graph walk equals a walk over the raw ``FlowStep`` data.

:func:`repro.core.session.evaluate_trace` answers each frame with one
lookup in the graph's precompiled transition table.  This suite re-walks
the same traces the slow way, straight from the steps — first step leaving
the current state with the frame's signature, else the first step anywhere
with it (``"!<label>"``), else unknown (``"?"``) — and checks that both
walks agree on transitions, final state, findings and the coverage map.

Traces are seeded random :func:`apply_ops` sequences over every op kind,
spliced with frames whose signatures no step or injection template
defines, so the lookup's fallback path is exercised as well.

The trial records keep their contract as well: scheduled ops equal,
hash and encode like ops built through ``SessionOp``'s own constructor,
schedule descriptions stay pinned, and ``SessionFrame`` keeps its field
order and ``sig()``.
"""

import hashlib
import json
import random

import pytest

from repro.core.session import (
    FLOW_GRAPHS,
    FLOWS,
    OP_KINDS,
    SessionOp,
    SessionSchedule,
    SessionPlan,
    apply_ops,
    evaluate_trace,
)
from repro.obs.metrics import MetricsCollector, collecting, state_coverage_key
from repro.simulator.vulnerabilities import SessionFrame, match_session_vulns
from repro.wire import decode, encode

CASES_PER_FLOW = 80

#: SHA-256 of the sorted-key JSON of ``describe(trials=16)`` for every flow
#: and seeds 0-4, per plan.  The schedule rng stream must never move.
DESCRIBE_SHA256 = {
    "default": "a01190144a8c7443804c603eda4e6c30103f5c0aace2c494b4c28586f640751f",
    "boosted": "8b0918828da78fb82e6f171fabf7996dae43418e9cd69c078b493543357d08ec",
}
PLANS = {"default": SessionPlan(), "boosted": SessionPlan(max_ops=6, exploit_boost=3)}


def reference_walk(flow, events, collector):
    """The lenient walk computed from ``FlowStep`` fields, frame by frame."""
    steps = FLOW_GRAPHS[flow].steps
    state = FLOW_GRAPHS[flow].initial
    frames, transitions = [], []
    for sender, cmdcl, cmd, params in events:
        frames.append(SessionFrame(state, sender, cmdcl, cmd, params))
        same = [
            step
            for step in steps
            if (step.sender, step.cmdcl, step.cmd) == (sender, cmdcl, cmd)
        ]
        on_path = [step for step in same if step.src == state]
        if on_path:
            mark = on_path[0].dst
        elif same:
            mark = f"!{same[0].label}"
        else:
            mark = "?"
        transitions.append((state, mark))
        collector.cover_keys([state_coverage_key(flow, state, mark)])
        collector.cover(cmdcl, cmd)
        if on_path:
            state = on_path[0].dst
    trace = tuple(frames)
    return trace, tuple(transitions), state, match_session_vulns(flow, trace)


def defined_signatures(flow):
    graph = FLOW_GRAPHS[flow]
    events = [step.event() for step in graph.steps] + [graph.downgrade, graph.commit]
    return {event[:3] for event in events}


def foreign_event(rng, flow):
    """A frame whose signature the graph of *flow* does not define."""
    defined = defined_signatures(flow)
    while True:
        sender = rng.choice(("ctrl", "dev"))
        if rng.random() < 0.5:
            # Near miss: a defined class with a neighbouring command.
            _, cmdcl, cmd = rng.choice(sorted(defined))
            cmd = (cmd + rng.randrange(1, 4)) & 0xFF
        else:
            cmdcl, cmd = rng.randrange(256), rng.randrange(256)
        if (sender, cmdcl, cmd) not in defined:
            return (sender, cmdcl, cmd, bytes(rng.randrange(256) for _ in range(3)))


def random_trace(rng, flow):
    span = len(FLOW_GRAPHS[flow].steps) + 2
    ops = tuple(
        SessionOp(
            kind=rng.choice(OP_KINDS),
            index=rng.randrange(span),
            index2=rng.randrange(span + 1),
            byte_pos=rng.randrange(16),
            xor=rng.randrange(256),
        )
        for _ in range(rng.randrange(0, 7))
    )
    events = list(apply_ops(flow, ops))
    for _ in range(rng.randrange(0, 3)):
        events.insert(rng.randrange(len(events) + 1), foreign_event(rng, flow))
    return tuple(events)


@pytest.mark.parametrize("flow", FLOWS)
def test_compiled_walk_equals_reference_walk(flow):
    rng = random.Random(f"compiled-walk.{flow}")
    defined = defined_signatures(flow)
    compiled, reference = MetricsCollector(), MetricsCollector()
    fallbacks = 0
    for _ in range(CASES_PER_FLOW):
        events = random_trace(rng, flow)
        with collecting(compiled):
            evaluation = evaluate_trace(flow, events)
        frames, transitions, final_state, findings = reference_walk(
            flow, events, reference
        )
        assert evaluation.frames == frames
        assert evaluation.transitions == transitions
        assert evaluation.final_state == final_state
        assert list(evaluation.findings) == findings
        # Per trace, not only at the end: the energy loop's novelty test
        # compares coverage_size() across each trace.
        assert compiled.coverage_size() == reference.coverage_size()
        assert compiled.snapshot().coverage == reference.snapshot().coverage
        fallbacks += sum(1 for event in events if event[:3] not in defined)
    assert fallbacks > 0  # the unknown-signature path ran


@pytest.mark.parametrize("flow", FLOWS)
def test_scheduled_frames_never_miss_the_table(flow):
    """Every frame a schedule can emit has a compiled entry in every state."""
    table = FLOW_GRAPHS[flow].table
    states = {key[0] for key in table}
    schedule = SessionSchedule(flow, SessionPlan(max_ops=6, exploit_boost=3), seed=11)
    for trial in range(200):
        ops = schedule.trial_ops(trial) + schedule.havoc_ops(trial)
        for sender, cmdcl, cmd, _params in apply_ops(flow, ops):
            assert all((state, sender, cmdcl, cmd) in table for state in states)


@pytest.mark.parametrize("flow", FLOWS)
@pytest.mark.parametrize("seed", [0, 3, 17])
def test_scheduled_ops_match_constructed_ops(flow, seed):
    """Every op a schedule emits is the op ``SessionOp(...)`` would build."""
    schedule = SessionSchedule(flow, SessionPlan(max_ops=6, exploit_boost=3), seed)
    for trial in range(40):
        for op in schedule.trial_ops(trial) + schedule.havoc_ops(trial):
            built = SessionOp(op.kind, op.index, op.index2, op.byte_pos, op.xor)
            assert op == built and hash(op) == hash(built)
            assert repr(op) == repr(built)
            assert encode(op) == encode(built)
            assert decode(SessionOp, encode(op), "op") == built


@pytest.mark.parametrize("name", sorted(PLANS))
def test_schedule_descriptions_are_pinned(name):
    docs = [
        SessionSchedule(flow, PLANS[name], seed).describe(trials=16)
        for seed in range(5)
        for flow in FLOWS
    ]
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == DESCRIBE_SHA256[name]


def test_session_frame_keeps_its_record_shape():
    assert SessionFrame._fields == ("state", "sender", "cmdcl", "cmd", "params")
    frame = SessionFrame("idle", "ctrl", 0x98, 0x04, b"\x00")
    assert (frame.cmdcl, frame.cmd) == (0x98, 0x04)
    assert frame == SessionFrame(
        state="idle", sender="ctrl", cmdcl=0x98, cmd=0x04, params=b"\x00"
    )
    assert hash(frame) == hash(SessionFrame("idle", "ctrl", 0x98, 0x04, b"\x00"))
    with pytest.raises(AttributeError):
        frame.state = "done"
