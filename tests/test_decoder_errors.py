"""Decoders reject well-formed JSON of the wrong shape with their own error.

A JSON array or an object missing fields must surface as the decoding
module's :class:`ReproError` subclass, never as a stray ``AttributeError``,
``KeyError`` or ``TypeError`` (which the job service would turn into a 500).
"""

import pytest

from repro.core.resultio import jobspec_from_wire
from repro.core.session import loads_session_plan
from repro.errors import CampaignError, ReproError
from repro.faults.plan import FaultPlanError, loads_plan
from repro.wire import WireError


def test_jobspec_from_wire_rejects_array():
    with pytest.raises(WireError, match="expected a JSON object"):
        jobspec_from_wire([])


def test_wire_error_is_a_repro_error():
    assert issubclass(WireError, ReproError)


def test_loads_plan_rejects_array():
    with pytest.raises(FaultPlanError, match="must be a JSON object"):
        loads_plan("[]")


def test_loads_session_plan_rejects_empty_object():
    with pytest.raises(CampaignError, match="missing field 'name'"):
        loads_session_plan("{}")


def test_loads_session_plan_rejects_array():
    with pytest.raises(CampaignError, match="expected a JSON object"):
        loads_session_plan("[]")


def _session_plan_text(**overrides):
    import json

    from repro.core.session import SessionPlan

    wire = SessionPlan().to_wire()
    wire.update(overrides)
    return json.dumps(wire)


@pytest.mark.parametrize(
    "overrides, message",
    [
        pytest.param({"trials": "24"}, "trials must be an integer, got str", id="str-trials"),
        pytest.param({"trials": 24.0}, "trials must be an integer, got float", id="float-trials"),
        pytest.param({"min_ops": 1.5}, "min_ops must be an integer, got float", id="float-min-ops"),
        pytest.param(
            {"batch_trials": True}, "batch_trials must be an integer, got bool", id="bool-count"
        ),
        pytest.param(
            {"weights": [["drop", 2.5]]}, "weight for 'drop' must be an integer", id="float-weight"
        ),
        pytest.param(
            {"weights": [[3, 2]]}, r"each weight must be a \[kind, weight\] pair", id="int-kind"
        ),
        pytest.param({"name": 7}, "name must be a string", id="int-name"),
        pytest.param({"directed_seeds": 1}, "directed_seeds must be a boolean", id="int-flag"),
    ],
)
def test_loads_session_plan_rejects_mistyped_fields(overrides, message):
    with pytest.raises(CampaignError, match=message):
        loads_session_plan(_session_plan_text(**overrides))
