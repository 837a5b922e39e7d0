"""The declarative wire codec: layout declarations and decode rules."""

import json
from dataclasses import dataclass, replace
from typing import Dict, FrozenSet, List, Optional, Tuple

import pytest

from repro.errors import CampaignError
from repro.serve.protocol import JobSpec, job_id_for, spec_key
from repro.wire import (
    WIRE_VERSION,
    WireError,
    WireVersionError,
    decode,
    encode,
    is_negative,
    layout,
)


@layout(row=True)
@dataclass(frozen=True)
class Pair:
    name: str
    count: int


@layout(versioned=True, rename={"values": "v"}, elide={"offset": is_negative})
@dataclass(frozen=True)
class Sample:
    label: str
    values: Tuple[float, ...]
    pairs: List[Pair]
    tags: FrozenSet[str]
    blob: bytes
    extra: Dict[str, Optional[int]]
    offset: int = -1


SAMPLE = Sample(
    label="s",
    values=(1.5, 2),
    pairs=[Pair("a", 1)],
    tags=frozenset({"y", "x"}),
    blob=b"\x01\xff",
    extra={"k": None, "j": 3},
)


class TestLayout:
    def test_encoding_follows_the_declarations(self):
        assert encode(SAMPLE) == {
            "wire_version": WIRE_VERSION,
            "label": "s",
            "v": [1.5, 2],
            "pairs": [["a", 1]],
            "tags": ["x", "y"],
            "blob": "01ff",
            "extra": {"k": None, "j": 3},
        }
        assert list(encode(SAMPLE)) == ["wire_version", "label", "v", "pairs", "tags", "blob", "extra"]

    def test_round_trip_and_elided_default(self):
        assert decode(Sample, encode(SAMPLE), "sample") == SAMPLE
        shifted = replace(SAMPLE, offset=4)
        assert encode(shifted)["offset"] == 4
        assert decode(Sample, encode(shifted), "sample") == shifted

    def test_no_numeric_coercion(self):
        restored = decode(Sample, encode(SAMPLE), "sample")
        assert [type(v) for v in restored.values] == [float, int]

    def test_int_in_float_field_keeps_the_job_id(self):
        spec = JobSpec(hours=1)
        wire = encode(spec)
        assert wire["hours"] == 1 and type(wire["hours"]) is int
        restored = decode(JobSpec, json.loads(json.dumps(wire)), "job spec")
        assert type(restored.hours) is int
        assert spec_key(restored) == spec_key(spec)
        assert job_id_for(restored) == job_id_for(spec)


class TestDecodeErrors:
    def _reject(self, wire, pattern, error=WireError):
        with pytest.raises(error, match=pattern):
            decode(Sample, wire, "sample")

    def test_version_runs_first(self):
        with pytest.raises(WireVersionError) as excinfo:
            decode(Sample, {}, "sample")
        assert excinfo.value.found is None

    def test_non_object(self):
        self._reject([], "sample: expected a JSON object, got list")

    def test_missing_and_unknown_fields(self):
        wire = encode(SAMPLE)
        del wire["label"]
        self._reject(wire, "sample: missing field 'label'")
        self._reject({**encode(SAMPLE), "zzz": 1}, "sample: unknown field 'zzz'")

    @pytest.mark.parametrize(
        "key, value, message",
        [
            ("label", 3, "label must be a string, got int"),
            ("v", [1.0, "2"], r"v\[1\] must be a number, got str"),
            ("v", [True], r"v\[0\] must be a number, got bool"),
            ("pairs", [["a", 1.0]], r"pairs\[0\]\[1\] must be an integer, got float"),
            ("pairs", [["a"]], r"pairs\[0\] must be an array of 2 elements, got 1"),
            ("tags", "x", "tags must be an array, got str"),
            ("blob", "zz", "blob must be a hex string, got str"),
            ("extra", {"k": "1"}, r"extra\['k'\] must be an integer or null, got str"),
        ],
    )
    def test_type_errors_name_the_json_path(self, key, value, message):
        self._reject({**encode(SAMPLE), key: value}, f"sample: {message}")

    def test_declared_error_class(self):
        from repro.core.session import SessionPlan, loads_session_plan

        wire = encode(SessionPlan())
        wire["max_ops"] = None
        with pytest.raises(CampaignError, match="session plan: max_ops must be an integer, got null"):
            loads_session_plan(json.dumps(wire))
