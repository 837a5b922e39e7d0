"""Shared fixtures for the ZCover reproduction test suite."""

from __future__ import annotations

import random
import threading

import pytest

from repro.radio.clock import SimClock
from repro.radio.medium import RadioMedium
from repro.simulator.testbed import build_sut
from repro.zwave.registry import load_full_registry, load_public_registry


@pytest.fixture(scope="session")
def public_registry():
    """The 122-class public specification registry (immutable)."""
    return load_public_registry()


@pytest.fixture(scope="session")
def full_registry():
    """The registry including the proprietary 0x01/0x02 classes."""
    return load_full_registry()


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def medium(clock):
    return RadioMedium(clock, random.Random(1234))


@pytest.fixture
def sut():
    """A default D1 system under test with live traffic."""
    return build_sut("D1", seed=7)


@pytest.fixture
def quiet_sut():
    """A D1 SUT with no background traffic (deterministic frame counts)."""
    return build_sut("D1", seed=7, traffic=False)


@pytest.fixture
def hold_runner():
    """Hold a ``ServiceThread``'s runner off the queue until a gate opens.

    ``hold_runner(handle)`` returns the gate (a ``threading.Event``); jobs
    submitted before it is set queue behind each other, so the runner
    starts the second while the first is still settling.
    """

    def hold(handle):
        queue = handle.service.queue
        gate = threading.Event()
        pick = queue.next_queued
        queue.next_queued = lambda: pick() if gate.is_set() else None
        return gate

    return hold
