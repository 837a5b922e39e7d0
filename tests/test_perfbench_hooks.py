"""The names perfbench's traced run hooks into still exist and still work.

``perfbench/`` is frozen: it wraps and reads product names from outside
(``perfbench/layers.py``), so deleting one of them breaks the traced
benchmark run without failing anything under ``src/``.  These tests
install each workload's hooks and, for the campaign, drive one short
campaign through them.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import pytest

from repro.core.campaign import run_campaign

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def layers(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import layers
    import spans

    log = spans.SpanLog()
    yield layers, log
    log.unwrap()


def test_traced_campaign_reads_the_engine_it_wraps(layers):
    module, log = layers
    counts = Counter()
    module.install_campaign(log, counts)
    result = run_campaign("D1", duration=60.0, seed=0)
    assert counts["packets"] == result.fuzz.packets_sent > 0
    assert counts["pings_sent"] > 0


def test_sessions_and_served_hooks_install(layers):
    module, log = layers
    module.install_sessions(log, Counter())
    module.install_served(log, module.ServedProbe())
