"""Seeded structural fuzzing of every decoder that reads outside input.

Each target starts from real wire forms — the golden files under
``tests/data/``, the stock plans, and short seeded runs for the types the
goldens lack (VFuzz results, session results, job statuses, traces, bug
logs) — and applies one to three structural mutations per case: drop a
field, swap a value's JSON type, wrap it in an array, truncate an array or
string, substitute a boundary integer, add an unknown key, or nest the
value deeply.  The oracle is the decoders' contract: every case either
decodes or raises a :class:`~repro.errors.ReproError` subclass, never a
stray ``KeyError``/``TypeError``/``AttributeError`` or the like.

The named cases at the bottom are minimised crashers that escaped as
stray exceptions before the decoders were derived from the dataclasses.
"""

import json
import random
from pathlib import Path

import pytest

from repro.core.buglog import BugLog
from repro.core.parallel import CampaignUnit, rehydrate_unit_result
from repro.core.resultio import (
    campaign_from_wire,
    jobspec_from_wire,
    jobstatus_from_wire,
    jobstatus_to_wire,
    session_from_wire,
    session_to_wire,
    vfuzz_to_wire,
)
from repro.errors import ReproError
from repro.wire import WireError, decode, loads_wire


def vfuzz_from_wire(data):
    """A vfuzz unit's wire result, decoded as the executor decodes it."""
    return rehydrate_unit_result(CampaignUnit(kind="vfuzz"), data)

DATA = Path(__file__).resolve().parent / "data"
BENCH_BASELINE = DATA.parent.parent / "benchmarks" / "baselines" / "BENCH_core.json"

CASES_PER_TARGET = 1000

SWAPS = (0, "x", [], {}, None, True)
BOUNDARY_INTS = (0, -1, 1, 2**31 - 1, -(2**31), 2**63, -(2**63) - 1, 10**30)
MUTATIONS = ("drop", "swap", "wrap", "truncate", "boundary", "extra", "nest")


# -- the mutation engine -------------------------------------------------------


def _paths(value, path=()):
    """Every node path in a JSON tree, grouped by depth."""
    by_depth = {}
    stack = [(value, path)]
    while stack:
        node, here = stack.pop()
        by_depth.setdefault(len(here), []).append(here)
        if isinstance(node, dict):
            stack.extend((node[key], here + (key,)) for key in node)
        elif isinstance(node, list):
            stack.extend((item, here + (index,)) for index, item in enumerate(node))
    return [sorted(by_depth[depth], key=repr) for depth in sorted(by_depth)]


def _fresh(value):
    return [] if value == [] else {} if value == {} else value


def _mutate_node(rng, node):
    """One mutation of one value; ``_DROP`` removes it from its parent."""
    kind = rng.choice(MUTATIONS)
    if kind == "drop":
        return _DROP
    if kind == "swap":
        return _fresh(rng.choice(SWAPS))
    if kind == "wrap":
        return [node]
    if kind == "truncate" and isinstance(node, (list, str)) and node:
        return node[: rng.randrange(len(node))]
    if kind == "extra" and isinstance(node, dict):
        return {**node, "unexpected": rng.choice(SWAPS)}
    if kind == "nest":
        for _ in range(rng.randrange(20, 200)):
            node = [node] if rng.random() < 0.5 else {"k": node}
        return node
    return rng.choice(BOUNDARY_INTS)


_DROP = object()


def _replace(root, path, rng):
    """A copy of *root* with the node at *path* mutated (containers along
    the path are copied, everything else shared).  ``None`` if the path
    no longer exists."""
    if not path:
        new = _mutate_node(rng, root)
        return None if new is _DROP else new
    head, rest = path[0], path[1:]
    if isinstance(root, dict) and head in root:
        copy = dict(root)
    elif isinstance(root, list) and isinstance(head, int) and head < len(root):
        copy = list(root)
    else:
        return None
    new = _replace(root[head], rest, rng) if rest else _mutate_node(rng, root[head])
    if new is None and rest:
        return None
    if new is _DROP:
        del copy[head]
    else:
        copy[head] = new
    return copy


def mutants(seed, seeds, count=CASES_PER_TARGET):
    """*count* seeded mutants of the JSON values in *seeds*."""
    rng = random.Random(seed)
    shapes = [(value, _paths(value)) for value in seeds]
    out = []
    while len(out) < count:
        value, levels = rng.choice(shapes)
        mutant = value
        for _ in range(rng.randrange(1, 4)):
            level = rng.choice(levels)
            candidate = _replace(mutant, rng.choice(level), rng)
            if candidate is not None:
                mutant = candidate
        out.append(mutant)
    return out


def stray_exceptions(decode, cases):
    """Decode every case; collect exceptions that are not ReproErrors."""
    strays = {}
    decoded = rejected = 0
    for case in cases:
        try:
            decode(case)
        except ReproError:
            rejected += 1
        except Exception as exc:  # the oracle: nothing else may escape
            strays.setdefault(type(exc).__name__, repr(case)[:300])
        else:
            decoded += 1
    return strays, decoded, rejected


# -- real wire forms -----------------------------------------------------------


@pytest.fixture(scope="module")
def campaign_wires():
    golden = json.loads((DATA / "perf_golden.json").read_text())
    return [loads_wire(text) for _device, text in sorted(golden["wire"].items())]


@pytest.fixture(scope="module")
def serve_golden():
    return json.loads((DATA / "serve_golden.json").read_text())


@pytest.fixture(scope="module")
def vfuzz_wires():
    from repro.core.baseline import VFuzzBaseline
    from repro.simulator.testbed import build_sut

    return [vfuzz_to_wire(VFuzzBaseline(build_sut("D2", seed=3), seed=3).run(300.0))]


@pytest.fixture(scope="module")
def session_wires():
    from repro.core.session import SessionPlan, run_session_flow

    plan = SessionPlan(name="fast", trials=8, batch_trials=3)
    return [session_to_wire(run_session_flow("D1", flow, seed=0, plan=plan)) for flow in ("s0", "ota")]


@pytest.fixture(scope="module")
def status_wires(serve_golden):
    from repro.serve.jobs import JobRecord

    wires = []
    for index, spec in enumerate(serve_golden["specs"]):
        record = JobRecord(jobspec_from_wire(spec["wire"]), spec["job_id"], index)
        record.counters = {"fuzzer.frames_tx": 7 * index, "fuzzer.bugs": index}
        record.units_total, record.units_done = 2, index % 3
        wires.append(jobstatus_to_wire(record.status()))
    return wires


@pytest.fixture(scope="module")
def trace_lines(tmp_path_factory):
    from repro.radio.trace import save_trace
    from repro.simulator.testbed import build_sut

    sut = build_sut("D1", seed=7)
    sut.dongle.clear_captures()
    sut.clock.advance(60.0)
    path = tmp_path_factory.mktemp("trace") / "capture.jsonl"
    save_trace(sut.dongle.captures(), path)
    return [json.loads(line) for line in path.read_text().splitlines()][:40]


@pytest.fixture(scope="module")
def buglog_lines(campaign_wires, tmp_path_factory):
    path = tmp_path_factory.mktemp("buglog") / "bugs.jsonl"
    campaign_from_wire(campaign_wires[0]).fuzz.bug_log.save(path)
    return [json.loads(line) for line in path.read_text().splitlines()]


def _line_decoder(tmp_path, load):
    """Decode one JSON text by writing it to a file and loading it."""
    path = tmp_path / "case.jsonl"

    def decode(case):
        text = case if isinstance(case, str) else json.dumps(case)
        path.write_text(text + "\n")
        return load(path)

    return decode


def _with_torn_text(rng, cases):
    """Every tenth case becomes its JSON text cut short (not valid JSON)."""
    out = []
    for index, case in enumerate(cases):
        if index % 10 == 0:
            text = json.dumps(case)
            case = text[: rng.randrange(max(1, len(text)))]
        out.append(case)
    return out


def _declared(error, decode):
    """Only *error* is a clean rejection; any other ReproError is a stray."""

    def strict(case):
        try:
            return decode(case)
        except error:
            raise
        except ReproError as exc:
            raise AssertionError(f"{type(exc).__name__} is not {error.__name__}") from None

    return strict


# -- the fuzz targets ----------------------------------------------------------


def _assert_clean(decode, cases):
    strays, decoded, rejected = stray_exceptions(decode, cases)
    assert strays == {}
    assert len(cases) >= CASES_PER_TARGET
    assert rejected > 0
    return decoded


class TestDecoderFuzz:
    def test_campaign(self, campaign_wires):
        assert _assert_clean(campaign_from_wire, mutants(1, campaign_wires)) > 0

    def test_vfuzz(self, vfuzz_wires):
        assert _assert_clean(vfuzz_from_wire, mutants(2, vfuzz_wires)) > 0

    def test_session(self, session_wires):
        assert _assert_clean(session_from_wire, mutants(3, session_wires)) > 0

    def test_jobspec(self, serve_golden):
        seeds = [spec["wire"] for spec in serve_golden["specs"]]
        assert _assert_clean(jobspec_from_wire, mutants(4, seeds)) > 0

    def test_jobstatus(self, status_wires):
        assert _assert_clean(jobstatus_from_wire, mutants(5, status_wires)) > 0

    def test_fault_plan(self):
        from repro.faults.plan import dumps_plan, loads_plan, stock_plan

        seeds = [json.loads(dumps_plan(stock_plan(name))) for name in ("canonical", "lossy", "flaky")]
        cases = [json.dumps(case) for case in mutants(6, seeds)]
        assert _assert_clean(loads_plan, cases) > 0

    def test_session_plan(self):
        from repro.core.session import SessionPlan, dumps_session_plan, loads_session_plan

        plans = (SessionPlan(), SessionPlan(name="fast", trials=8, batch_trials=3))
        seeds = [json.loads(dumps_session_plan(plan)) for plan in plans]
        cases = [json.dumps(case) for case in mutants(7, seeds)]
        assert _assert_clean(loads_session_plan, cases) > 0

    def test_wal_line(self, serve_golden, tmp_path):
        """Mutated records are re-wrapped with a valid CRC, so they reach
        the layout decode; a rejected record ends the trusted prefix."""
        from repro.serve.checkpoint import encode_line, load_prefix, replay_checkpoint

        lines = [json.loads(line) for line in serve_golden["checkpoint_lines"]]
        rng = random.Random(8)
        path = tmp_path / "serve.ckpt"

        def decode(case):
            record_case, rewrap = case
            text = encode_line(record_case) if rewrap else json.dumps(record_case)
            path.write_text(text + "\n")
            records = [line for line, _ in load_prefix(str(path))]
            replay_checkpoint(records)
            if not records:
                raise WireError("rejected")  # counted as a clean rejection
            return records

        records = mutants(8, [line["record"] for line in lines])
        wrappers = mutants(9, lines, count=len(records) // 4)
        cases = [(case, True) for case in records]
        cases += [(case, False) for case in wrappers]
        rng.shuffle(cases)
        assert _assert_clean(decode, cases) > 0

    def test_trace_line(self, trace_lines, tmp_path):
        from repro.radio.trace import load_trace

        cases = _with_torn_text(random.Random(10), mutants(10, trace_lines))
        assert _assert_clean(_line_decoder(tmp_path, load_trace), cases) > 0

    def test_buglog_line(self, buglog_lines, tmp_path):
        cases = _with_torn_text(random.Random(11), mutants(11, buglog_lines))
        assert _assert_clean(_line_decoder(tmp_path, BugLog.load), cases) > 0

    def test_metrics_document_file(self, tmp_path):
        from repro.obs.export import ObsExportError, load_document

        seeds = [json.loads((DATA / "obs_golden.json").read_text())]
        cases = _with_torn_text(random.Random(13), mutants(13, seeds))
        decode = _declared(ObsExportError, _line_decoder(tmp_path, load_document))
        assert _assert_clean(decode, cases) > 0

    def test_bench_document_file(self, tmp_path):
        """Decoded baselines also go through the gate, which reads every entry."""
        from repro.perf.bench import PerfError, compare
        from repro.perf.document import load_document

        def gate(path):
            baseline = load_document(path)
            return compare(baseline, baseline)

        seeds = [json.loads(BENCH_BASELINE.read_text())]
        cases = _with_torn_text(random.Random(14), mutants(14, seeds))
        decode = _declared(PerfError, _line_decoder(tmp_path, gate))
        assert _assert_clean(decode, cases) > 0

    def test_http_front_rejects_undecodable_specs_as_layout(self, serve_golden):
        """Every mutated ``POST /jobs`` body the spec decoder rejects gets a
        400 ``layout`` (or ``wire-version``) answer, and every one that
        decodes but fails validation a 400 ``spec``, never a 500."""
        from repro.wire import WireVersionError
        from repro.serve.protocol import SpecError, validate_spec
        from repro.serve.service import ZCoverService

        service = ZCoverService()
        seeds = [spec["wire"] for spec in serve_golden["specs"]]
        checked = {"layout": 0, "wire-version": 0, "spec": 0}
        for case in mutants(12, seeds):
            try:
                validate_spec(jobspec_from_wire(case))
            except WireVersionError:
                expected = "wire-version"
            except SpecError:
                expected = "spec"
            except ReproError:
                expected = "layout"
            else:
                continue  # valid bodies would enqueue real work
            status, body, _ = service._post_job(json.dumps(case).encode("utf-8"))
            assert (status, json.loads(body)["error"]["kind"]) == (400, expected)
            checked[expected] += 1
        assert checked["layout"] + checked["wire-version"] > 500
        assert checked["spec"] > 30


# -- minimised crashers --------------------------------------------------------


@pytest.mark.parametrize(
    "decoder",
    [campaign_from_wire, vfuzz_from_wire, session_from_wire, jobspec_from_wire, jobstatus_from_wire],
    ids=["campaign", "vfuzz", "session", "jobspec", "jobstatus"],
)
def test_bare_version_envelope_is_a_wire_error(decoder):
    from repro.wire import WIRE_VERSION

    with pytest.raises(WireError):
        decoder({"wire_version": WIRE_VERSION})


def test_fault_plan_with_scalar_faults_is_a_plan_error():
    from repro.faults.plan import FaultPlanError, canonical_mixed_plan, dumps_plan, loads_plan

    doc = json.loads(dumps_plan(canonical_mixed_plan()))
    doc["faults"] = 5
    with pytest.raises(FaultPlanError, match="faults must be an array, got int"):
        loads_plan(json.dumps(doc))


def test_fault_spec_with_string_rate_is_a_plan_error():
    from repro.faults.plan import FaultPlanError, canonical_mixed_plan, dumps_plan, loads_plan

    doc = json.loads(dumps_plan(canonical_mixed_plan()))
    doc["faults"][0]["rate"] = "0.5"
    with pytest.raises(FaultPlanError, match=r"faults\[0\]\.rate must be a number, got str"):
        loads_plan(json.dumps(doc))


def test_metrics_document_that_is_an_array_is_an_export_error():
    from repro.obs.export import MetricsDocument, ObsExportError

    with pytest.raises(ObsExportError):
        decode(MetricsDocument, [], "metrics document")


def test_campaign_with_unhashable_mode_is_a_wire_error(campaign_wires):
    wire = dict(campaign_wires[0], mode=["FULL"])
    with pytest.raises(WireError, match="mode must be one of"):
        campaign_from_wire(wire)


def test_campaign_with_short_detection_row_is_a_wire_error(campaign_wires):
    fuzz = dict(campaign_wires[0]["fuzz"])
    fuzz["detections"] = [fuzz["detections"][0][:2]]
    with pytest.raises(WireError, match=r"fuzz\.detections\[0\] must be an array of 4 elements"):
        campaign_from_wire(dict(campaign_wires[0], fuzz=fuzz))


def test_session_with_null_metrics_section_is_a_wire_error(session_wires):
    metrics = dict(session_wires[0]["metrics"], spans=None)
    with pytest.raises(WireError, match="metrics.spans must be a JSON object, got null"):
        session_from_wire(dict(session_wires[0], metrics=metrics))


@pytest.mark.parametrize(
    "line", ['{"t": 1.0', "[]", '{"t": 1.0, "rssi": -40.0, "bit_errors": 0}'], ids=["json", "array", "missing"]
)
def test_bad_trace_line_is_a_repro_error(tmp_path, line):
    from repro.radio.trace import load_trace

    path = tmp_path / "capture.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ReproError, match=f"{path}:1"):
        load_trace(path)


@pytest.mark.parametrize("line", ['{"timestamp"', "[1]", '{"timestamp": 1.0}'], ids=["json", "array", "missing"])
def test_bad_buglog_line_is_a_repro_error(tmp_path, line):
    path = tmp_path / "bugs.jsonl"
    path.write_text(line + "\n")
    with pytest.raises(ReproError, match=f"{path}:1"):
        BugLog.load(path)


def test_wal_record_without_sequence_ends_the_trusted_prefix(serve_golden, tmp_path):
    from repro.serve.checkpoint import encode_line, load_prefix

    record = json.loads(serve_golden["checkpoint_lines"][0])["record"]
    del record["sequence"]
    path = tmp_path / "serve.ckpt"
    path.write_text(serve_golden["checkpoint_lines"][0] + "\n" + encode_line(record) + "\n")
    assert len(load_prefix(str(path))) == 1
