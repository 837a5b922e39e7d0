"""Self-tests of the benchmark's own rules.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import os
import sys
import threading

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spans  # noqa: E402
from checks import Tally  # noqa: E402
from measure import covered_length, highest_percentile, percentile, self_times  # noqa: E402
from spans import SpanLog  # noqa: E402

# -- the percentile rule -------------------------------------------------------


@pytest.mark.parametrize(
    "samples, expected",
    [(0, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
     (999, 90.0), (1000, 99.0), (9999, 99.0), (10000, 99.9)],
)
def test_highest_percentile_keeps_ten_samples_beyond(samples, expected):
    assert highest_percentile(samples) == expected


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert percentile(values, 0) == 1.0
    assert percentile(values, 100) == 4.0
    assert percentile(values, 50) == 2.5
    assert percentile([7.0], 90) == 7.0


# -- self-time arithmetic ------------------------------------------------------


def test_covered_length_merges_overlaps_and_clips():
    assert covered_length([(1, 4), (3, 6)], 0, 10) == 5
    assert covered_length([(1, 2), (1.5, 1.8), (5, 7)], 0, 10) == 3
    assert covered_length([(-5, 2), (9, 20)], 0, 10) == 3
    assert covered_length([], 0, 10) == 0


def test_self_time_is_duration_minus_children():
    spans_ = [
        (0.0, 10.0, None),  # root
        (1.0, 4.0, 0),  # child
        (5.0, 6.0, 0),  # child
        (2.0, 3.0, 1),  # grandchild
    ]
    assert self_times(spans_) == [6.0, 2.0, 1.0, 1.0]
    # Self times of a tree add back up to the root's duration.
    assert sum(self_times(spans_)) == 10.0


def _ticking_log(monkeypatch):
    ticks = iter(range(1000))
    monkeypatch.setattr(spans, "_now", lambda: float(next(ticks)))
    return SpanLog()


def test_span_log_self_by_name(monkeypatch):
    log = _ticking_log(monkeypatch)
    root = log.open("item")  # t=0
    child = log.open("layer")  # t=1
    log.close(child)  # t=2
    log.close(root)  # t=3
    table = log.self_by_name()
    assert table["item"] == [1, 2.0, 3.0]
    assert table["layer"] == [1, 1.0, 1.0]


def test_span_stacks_are_per_thread(monkeypatch):
    log = _ticking_log(monkeypatch)
    outer = log.open("main")

    def other():
        log.close(log.open("worker"))

    thread = threading.Thread(target=other)
    thread.start()
    thread.join(timeout=10)
    assert not thread.is_alive()
    log.close(outer)
    worker = next(span for span in log.spans if span[0] == "worker")
    assert worker[3] is None  # not a child of the main thread's open span


def test_spans_opened_on_two_threads_at_once_keep_their_own_index():
    log = SpanLog()
    spans_each = 20000
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        def work(name):
            for _ in range(spans_each):
                outer = log.open(name)
                log.close(log.open(name + ".child"))
                log.close(outer)

        threads = [threading.Thread(target=work, args=(name,)) for name in ("a", "b")]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(switch)
    assert not any(thread.is_alive() for thread in threads)
    assert all(span[2] is not None for span in log.spans)
    for span in log.spans:
        if span[0].endswith(".child"):
            assert log.spans[span[3]][0] + ".child" == span[0]
    table = log.self_by_name()
    assert {name: row[0] for name, row in table.items()} == {
        "a": spans_each, "a.child": spans_each, "b": spans_each, "b.child": spans_each,
    }


def test_clock_is_charged_to_the_nearest_phase(monkeypatch):
    log = _ticking_log(monkeypatch)
    assert log.clock_phase() == "clock.other"
    fuzz = log.open("fuzzer")
    assert log.clock_phase() == "clock.fuzz"
    ping = log.open("oracle.ping")
    assert log.clock_phase() == "clock.oracle"
    log.close(ping)
    log.close(fuzz)
    verify = log.open("tester.verify")
    log.open("testbed.build")
    assert log.clock_phase() == "clock.verify"
    assert log.inside("tester.verify") and not log.inside("fuzzer")
    del verify


def test_wrap_and_unwrap_restore_originals(monkeypatch):
    class Layer:
        def work(self, x):
            return x * 2

    original = Layer.__dict__["work"]
    log = _ticking_log(monkeypatch)
    log.wrap(Layer, "work", "layer.work")
    assert Layer().work(4) == 8
    assert [span[0] for span in log.spans] == ["layer.work"]
    log.unwrap()
    assert Layer.__dict__["work"] is original


# -- output checks -------------------------------------------------------------


def test_digest_mismatch_is_a_failed_item():
    tally = Tally(["aa", "bb"])
    assert tally.record(0, "aa", [])
    assert not tally.record(1, "cc", [])
    assert tally.record(2, "zz", [])  # beyond the table: structure only
    assert not tally.record(3, None, ["RuntimeError: boom"])
    assert not tally.record(0, "aa", ["invariant broken"])
    assert (tally.attempted, tally.failed, tally.digest_checked) == (5, 3, 3)


def test_item_loop_counts_a_wrong_digest_as_failed():
    from workloads import CAMPAIGN, item_loop

    tally = Tally(["0" * 64])
    loop = item_loop(CAMPAIGN, seed=0, seconds=0.001, tally=tally)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert loop.item_times == [] and loop.work == 0


# -- item lists ----------------------------------------------------------------


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_campaign_mix_is_the_same_for_every_seed(seed):
    import itertools
    from collections import Counter

    from workloads import CAMPAIGN_ITEMS, campaign_items

    items = list(itertools.islice(campaign_items(seed), CAMPAIGN_ITEMS))
    arms = Counter((item.mode, item.scheduler) for item in items)
    assert arms == {
        ("FULL", "coverage"): 21, ("FULL", "static"): 21,
        ("BETA", "coverage"): 21, ("BETA", "static"): 21, ("GAMMA", "static"): 42,
    }
    for pair in range(0, CAMPAIGN_ITEMS, 42):
        covered = Counter(
            (item.device, item.mode)
            for item in items[pair:pair + 42] if item.scheduler == "coverage"
        )
        assert len(covered) == 14 and set(covered.values()) == {1}
        first = sum(1 for item in items[pair:pair + 21]
                    if (item.mode, item.scheduler) == ("FULL", "coverage"))
        assert first == 4


# -- host-speed scaling --------------------------------------------------------


def test_host_scale_is_nominal_over_the_local_median():
    from hostspeed import NEIGHBOURS, NOMINAL_S, scales

    assert NEIGHBOURS == 3
    probes = [1.0, 2.0, 3.0, 100.0, 2.0, 2.0, 2.0, 2.0, 1.0]
    local = scales(probes)
    assert local[0] == NOMINAL_S / 2.5  # window clipped to probes[0:4]
    assert local[3] == NOMINAL_S / 2.0  # one slow probe does not set the scale
    assert local[8] == NOMINAL_S / 2.0  # window clipped to probes[5:9]
    assert scales([]) == []


def test_work_per_s_uses_scaled_item_time():
    from workloads import LoopResult

    loop = LoopResult(item_times=[1.0, 2.0], item_scales=[0.5, 1.0], work=30)
    assert loop.scaled_times == [0.5, 2.0]
    assert loop.work_per_s == 12.0
    served = LoopResult(work=10, wall_s=8.0, scaled_wall_s=5.0)
    assert served.work_per_s == 2.0


def test_probe_takes_cpu_time():
    from hostspeed import probe

    assert 0.0 < probe() < 1.0
