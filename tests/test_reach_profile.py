"""The reach guard's verdict, on synthetic function tables.

``tools/reach_profile.py`` fails when a ``src/repro`` module has no
function called by any entry point (``errors.py`` excepted), when a
function no entry point calls is missing from ``reach_allowlist.txt``,
and when a listed function is called after all or no longer exists.
These tests feed its verdict hand-made tables; none of them runs the
profiler.
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


def _allowed(reach, table, called):
    """An allowlist naming exactly the functions *called* leaves out."""
    return {
        reach.function_name(key, qualname): "error-path"
        for key, qualname in table.items()
        if key not in called
    }


# -- module grain -----------------------------------------------------------------


def test_only_errors_uncalled_passes(reach, table, capsys):
    called = _keys(table, "encode", "FirmwareSender.start")
    assert reach.dead_modules(table, called) == ["errors.py"]
    assert reach.verdict(table, called, _allowed(reach, table, called)) == 0
    assert capsys.readouterr().err == ""


def test_every_module_called_passes(reach, table, capsys):
    called = _keys(table, *table.values())
    assert reach.dead_modules(table, called) == []
    assert reach.verdict(table, called, {}) == 0
    assert capsys.readouterr().err == ""


def test_uncalled_module_fails_and_is_named(reach, table, capsys):
    called = _keys(table, "decode")
    assert reach.dead_modules(table, called) == ["errors.py", "simulator/ota.py"]
    assert reach.verdict(table, called, _allowed(reach, table, called)) == 1
    assert capsys.readouterr().err == "reach: no function called in simulator/ota.py\n"


def test_one_called_function_reaches_its_module(reach, table, capsys):
    called = _keys(table, "SpanValueError.__init__", "FirmwareSender.start", "decode")
    assert reach.verdict(table, called, _allowed(reach, table, called)) == 0
    assert capsys.readouterr().err == ""


def test_report_names_the_dead_modules(reach, table):
    called = _keys(table, "encode")
    text = reach.report(table, called, uncalled=True)
    assert "modules with no function called: errors.py, simulator/ota.py" in text
    assert "simulator/ota.py: FirmwareSender.start" in text
    total = next(line for line in text.splitlines() if line.startswith("total"))
    assert total.split() == ["total", "4", "1", "3"]


# -- function grain -----------------------------------------------------------------


def test_unlisted_never_called_function_fails_and_is_named(reach, table, capsys):
    called = _keys(table, "encode", "FirmwareSender.start")
    allowed = {"errors.py::SpanValueError.__init__": "error-path"}
    assert reach.verdict(table, called, allowed) == 1
    assert capsys.readouterr().err == (
        "reach: wire.py::decode: never called and not in reach_allowlist.txt\n"
    )


def test_listed_function_that_is_called_fails(reach, table, capsys):
    called = _keys(table, *table.values())
    allowed = {"wire.py::decode": "test-observes-state"}
    assert reach.verdict(table, called, allowed) == 1
    assert capsys.readouterr().err == (
        "reach: wire.py::decode: listed in reach_allowlist.txt as test-observes-state "
        "but called\n"
    )


def test_listed_function_that_is_not_defined_fails(reach, table, capsys):
    called = _keys(table, *table.values())
    allowed = {"wire.py::gone": "error-path"}
    assert reach.verdict(table, called, allowed) == 1
    assert capsys.readouterr().err == (
        "reach: wire.py::gone: listed in reach_allowlist.txt but not defined\n"
    )


def test_name_shared_by_getter_and_setter_is_never_called_while_one_is(reach):
    path = str(reach.PACKAGE / "radio" / "medium.py")
    table = {(path, 10, "powered"): "Medium.powered", (path, 14, "powered"): "Medium.powered"}
    getter = {(path, 10, "powered")}
    assert reach.function_problems(table, getter, {}) == [
        "radio/medium.py::Medium.powered: never called and not in reach_allowlist.txt"
    ]
    assert reach.function_problems(table, set(table), {}) == []


# -- the allowlist file ---------------------------------------------------------------


def test_allowlist_lines_parse_with_comments(reach, tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text(
        "# header\n\nwire.py::decode error-path  # a note\n"
        "security/aes.py::_mul reference-oracle\n"
    )
    assert reach.load_allowlist(path) == {
        "wire.py::decode": "error-path",
        "security/aes.py::_mul": "reference-oracle",
    }


@pytest.mark.parametrize(
    "line",
    ["wire.py::decode unused", "wire.py::decode", "decode error-path", "wire.py::decode error-path extra"],
)
def test_allowlist_rejects_a_malformed_line(reach, tmp_path, line):
    path = tmp_path / "allow.txt"
    path.write_text(line + "\n")
    with pytest.raises(ValueError, match="allow.txt:1"):
        reach.load_allowlist(path)


def test_allowlist_rejects_a_name_listed_twice(reach, tmp_path):
    path = tmp_path / "allow.txt"
    path.write_text("wire.py::decode error-path\nwire.py::decode beyond-horizon\n")
    with pytest.raises(ValueError, match="allow.txt:2: wire.py::decode is listed twice"):
        reach.load_allowlist(path)


def test_committed_allowlist_names_defined_functions(reach):
    allowed = reach.load_allowlist()
    defined = {reach.function_name(key, q) for key, q in reach.defined_functions().items()}
    assert set(allowed) <= defined
    assert set(allowed.values()) <= set(reach.REASONS)
