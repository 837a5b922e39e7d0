"""Regression tests pinning the fuzzer's encode-once injection contract.

The engine encodes every test case exactly once — at injection time — and
hands the bytes to the bug recorder on a finding.  An earlier revision
re-encoded the case inside ``_record``, doubling the serialisation cost of
every finding; these tests pin the call count with a counting stub so the
duplicate encode cannot silently return.
"""

import pytest

from repro.core.fuzzer import FuzzerConfig, FuzzingEngine
from repro.core.mutation import MutationOperator
from repro.simulator.testbed import build_sut
from repro.zwave.application import ApplicationPayload

#: A benign BASIC GET: the controller answers, no oracle fires.
BENIGN = bytes([0x20, 0x02])
#: A proprietary NVM-write: deterministically trips the memory oracle.
MEMORY_BUG = bytes([0x01, 0x0D, 0x02, 0x03])


class CountingCase:
    """A :class:`TestCase` stand-in whose ``encode()`` tallies every call."""

    def __init__(self, raw: bytes):
        self.payload = ApplicationPayload.decode(raw)
        self.operator = MutationOperator.SEED
        self.position = 0
        self.note = "encode-count stub"
        self.encode_calls = 0
        self._raw = raw

    def encode(self) -> bytes:
        self.encode_calls += 1
        return self._raw


@pytest.fixture
def engine():
    sut = build_sut("D1", seed=3, traffic=False)
    return FuzzingEngine(sut, FuzzerConfig())


def run_cases(engine, raws):
    cases = [CountingCase(raw) for raw in raws]
    result = engine.run([(raws[0][0], iter(cases), None)], duration=600.0)
    return cases, result


class TestEncodeOnce:
    def test_benign_cases_encode_exactly_once(self, engine):
        cases, result = run_cases(engine, [BENIGN] * 5)
        assert result.packets_sent == 5
        assert [c.encode_calls for c in cases] == [1] * 5

    def test_finding_cases_encode_exactly_once(self, engine):
        """The recorder reuses the injection bytes instead of re-encoding."""
        cases, result = run_cases(engine, [MEMORY_BUG, BENIGN, MEMORY_BUG])
        assert len(result.detections) >= 1
        assert [c.encode_calls for c in cases] == [1, 1, 1]

    def test_recorded_payload_is_injected_bytes(self, engine):
        cases, result = run_cases(engine, [MEMORY_BUG])
        assert cases[0].encode_calls == 1
        assert result.bug_log.records()
        assert result.bug_log.records()[0].payload_hex == MEMORY_BUG.hex()
