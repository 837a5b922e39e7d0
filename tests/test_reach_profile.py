"""The reach guard's verdict, on synthetic function tables.

``tools/reach_profile.py`` fails when a ``src/repro`` module has no
function called by any entry point, except ``errors.py``.  These tests
feed its verdict hand-made tables; none of them runs the profiler.
"""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "reach_profile.py"


@pytest.fixture(scope="module")
def reach():
    spec = importlib.util.spec_from_file_location("reach_profile", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def table(reach):
    """Four functions in three modules, keyed as the profiler keys them."""
    package = reach.PACKAGE
    return {
        (str(package / "errors.py"), 20, "__init__"): "SpanValueError.__init__",
        (str(package / "wire.py"), 10, "encode"): "encode",
        (str(package / "wire.py"), 30, "decode"): "decode",
        (str(package / "simulator" / "ota.py"), 5, "start"): "FirmwareSender.start",
    }


def _keys(table, *names):
    return {key for key, qualname in table.items() if qualname in names}


def test_only_errors_uncalled_passes(reach, table, capsys):
    called = _keys(table, "encode", "FirmwareSender.start")
    assert reach.dead_modules(table, called) == ["errors.py"]
    assert reach.verdict(table, called) == 0
    assert capsys.readouterr().err == ""


def test_every_module_called_passes(reach, table, capsys):
    called = _keys(table, *table.values())
    assert reach.dead_modules(table, called) == []
    assert reach.verdict(table, called) == 0
    assert capsys.readouterr().err == ""


def test_uncalled_module_fails_and_is_named(reach, table, capsys):
    called = _keys(table, "decode")
    assert reach.dead_modules(table, called) == ["errors.py", "simulator/ota.py"]
    assert reach.verdict(table, called) == 1
    assert capsys.readouterr().err == "reach: no function called in simulator/ota.py\n"


def test_one_called_function_reaches_its_module(reach, table, capsys):
    called = _keys(table, "SpanValueError.__init__", "FirmwareSender.start", "decode")
    assert reach.verdict(table, called) == 0
    assert capsys.readouterr().err == ""


def test_report_names_the_dead_modules(reach, table):
    called = _keys(table, "encode")
    text = reach.report(table, called, uncalled=True)
    assert "modules with no function called: errors.py, simulator/ota.py" in text
    assert "simulator/ota.py: FirmwareSender.start" in text
    total = next(line for line in text.splitlines() if line.startswith("total"))
    assert total.split() == ["total", "4", "1", "3"]
