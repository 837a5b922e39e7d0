"""Decoders reject well-formed JSON of the wrong shape with their own error.

A JSON array or an object missing fields must surface as the decoding
module's :class:`ReproError` subclass, never as a stray ``AttributeError``,
``KeyError`` or ``TypeError`` (which the job service would turn into a 500).
"""

import pytest

from repro.core.resultio import WireError, jobspec_from_wire
from repro.core.session import loads_session_plan
from repro.errors import CampaignError, ReproError
from repro.faults.plan import FaultPlanError, loads_plan


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
