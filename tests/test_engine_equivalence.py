"""Determinism matrix for the batched event engine.

The batched event engine (one arg-carrying clock event per transmission
fire time, replaying per-endpoint records in listener order) replaced the
legacy one-closure-per-delivery loop after this matrix proved the swap
changed *nothing observable*.  For every cell of (device x mode x
scheduler x fault-plan x workers) the campaign, session and chaos
documents plus the obs counter snapshot are now rendered twice and
compared **byte for byte**: the engine's run-to-run determinism re-run.
The committed goldens (``session_golden.json``, ``faults_golden.json``,
``scheduler_golden.json``, ``perf_golden.json``) were produced by the
legacy engine and re-verified unchanged after the swap, so they remain
the cross-engine pin; this suite guards the within-engine half of that
contract.
"""

import json
from types import SimpleNamespace

import pytest

from repro.core.campaign import Mode, run_campaign
from repro.core.resultio import campaign_to_wire, session_to_wire
from repro.core.session import run_sessions
from repro.core.trials import run_trials
from repro.faults.plan import canonical_mixed_plan
from repro.faults.report import build_chaos_document
from repro.obs.export import canonical_dumps
from repro.radio.clock import SimClock
from repro.radio.medium import RadioMedium
from repro.wire import dumps_wire
from repro.zwave.constants import Region

DURATION = 600.0  # 10 simulated minutes: all the early bugs, fast cells
SEED = 0


def _obs_slice(result):
    """Canonical rendering of a campaign's metrics counter snapshot."""
    counters = result.metrics.counters if result.metrics is not None else {}
    return json.dumps(
        {key: counters[key] for key in sorted(counters)},
        sort_keys=True,
        separators=(",", ":"),
    )


# -- matrix cells ---------------------------------------------------------------


def _campaign_cell(device, mode, scheduler, with_faults):
    plan = canonical_mixed_plan() if with_faults else None
    result = run_campaign(
        device=device,
        mode=mode,
        duration=DURATION,
        seed=SEED,
        scheduler=scheduler,
        fault_plan=plan,
    )
    return dumps_wire(campaign_to_wire(result)) + "\n" + _obs_slice(result)


def _chaos_cell(device):
    plan = canonical_mixed_plan()
    summary = run_trials(
        device=device,
        mode=Mode.FULL,
        n_trials=2,
        duration=DURATION,
        base_seed=SEED,
        workers=1,
        fault_plan=plan,
    )
    return canonical_dumps(build_chaos_document(summary, plan, SEED))


def _session_cell(device):
    return dumps_wire(session_to_wire(run_sessions(device, seed=SEED)))


def _workers_cell(device, workers):
    summary = run_trials(
        device=device,
        mode=Mode.FULL,
        n_trials=2,
        duration=DURATION,
        base_seed=SEED,
        workers=workers,
    )
    assert summary.failures == []
    return (
        "".join(dumps_wire(campaign_to_wire(trial)) for trial in summary.trials)
        + "\n"
        + summary.render()
    )


CELLS = (
    ("campaign-D1-FULL-static", lambda: _campaign_cell("D1", Mode.FULL, "static", False)),
    ("campaign-D1-BETA-static", lambda: _campaign_cell("D1", Mode.BETA, "static", False)),
    ("campaign-D1-GAMMA-static", lambda: _campaign_cell("D1", Mode.GAMMA, "static", False)),
    ("campaign-D2-FULL-coverage", lambda: _campaign_cell("D2", Mode.FULL, "coverage", False)),
    ("campaign-D2-FULL-faultplan", lambda: _campaign_cell("D2", Mode.FULL, "static", True)),
    ("chaos-D1-trials", lambda: _chaos_cell("D1")),
    ("sessions-D1", lambda: _session_cell("D1")),
    ("trials-D1-workers2", lambda: _workers_cell("D1", 2)),
)


@pytest.mark.parametrize("name,build", CELLS, ids=[name for name, _ in CELLS])
def test_matrix_cell_documents_byte_identical(name, build):
    """Both runs of a cell render the exact same bytes."""
    first, second = build(), build()
    assert first == second, f"engine drift in matrix cell {name}"


def test_workers_and_engines_commute():
    """serial and --workers 2, each run twice: all four bytes equal.

    The strongest cell: worker count and repetition must both be
    invisible, so one document stands for the whole 2x2 square.
    """
    documents = [_workers_cell("D2", workers) for workers in (1, 2) for _ in range(2)]
    reference = documents[0]
    for document in documents[1:]:
        assert document == reference


# -- medium-level scripted scenario ---------------------------------------------
#
# This cell drives marginal-link loss draws, enabled flips and
# fault-injected duplicate/delay offsets — every branch of the batch
# delivery loop — and fingerprints all of it.


class _DuplicatingInjector:
    """Minimal fault hook: duplicate every 3rd frame, delay every 4th."""

    def __init__(self):
        self.count = 0

    def on_transmit(self, sender, frame_bytes):
        self.count += 1
        return SimpleNamespace(
            drop=False,
            corrupt=None,
            extra_delay=0.002 if self.count % 4 == 0 else 0.0,
            duplicate=self.count % 3 == 0,
        )


def _medium_fingerprint():
    clock = SimClock()
    medium = RadioMedium(clock)
    medium.fault_injector = _DuplicatingInjector()
    received = []

    def listener(name):
        return lambda reception: received.append(
            (
                name,
                reception.raw.hex(),
                round(reception.rssi_dbm, 6),
                round(reception.timestamp, 9),
            )
        )

    medium.attach("ctrl", (0.0, 0.0), Region.EU, listener("ctrl"))
    medium.attach("near", (3.0, 0.0), Region.EU, listener("near"))
    medium.attach("edge", (95.0, 0.0), Region.EU, listener("edge"))
    medium.attach("deaf", (500.0, 0.0), Region.EU, listener("deaf"))
    medium.attach("us", (1.0, 1.0), Region.US, listener("us"))

    frame = bytes(range(18))
    for step in range(40):
        sender = ("ctrl", "near", "edge")[step % 3]
        medium.transmit(sender, frame + bytes([step]), rate_kbaud=100.0)
        if step == 10:
            # Two back-to-back transmissions overlap on air; both arrive.
            medium.transmit("near", frame, rate_kbaud=100.0)
        if step == 20:
            medium.set_enabled("near", False)
        if step == 25:
            medium.set_enabled("near", True)
        clock.advance(0.01)
    clock.advance(1.0)
    return json.dumps([received, medium.stats], sort_keys=True)


def test_medium_scenario_fingerprint_identical():
    assert _medium_fingerprint() == _medium_fingerprint()
