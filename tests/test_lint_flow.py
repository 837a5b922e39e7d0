"""Unit tests for the interprocedural flow engine (D2xx/W401).

Every rule is exercised on a minimal synthetic tree built from in-memory
:class:`SourceFile` objects, so each test pins exactly one behaviour of
the summarize/link/fixpoint pipeline.
"""

from pathlib import Path

from repro.lint.base import SourceFile, collect_sources
from repro.lint.flow import FlowAnalyzer
from repro.lint.flow.callgraph import CallGraph
from repro.lint.flow.purity import diff_manifests
from repro.lint.flow.symbols import summarize_text

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"


def tree(files):
    return [SourceFile.from_text(rel, text) for rel, text in sorted(files.items())]


def analyze(files):
    analyzer = FlowAnalyzer()
    findings = analyzer.analyze(tree(files))
    return findings, analyzer


def rules_of(findings):
    return sorted({f.rule for f in findings})


class TestEntropyFlow:
    def test_d201_direct_seed(self):
        findings, _ = analyze(
            {"a.py": "import random\ndef entry():\n    return random.random()\n"}
        )
        assert rules_of(findings) == ["D201"]
        (finding,) = findings
        assert finding.line == 2  # at the entry point's def line
        assert "entry" in finding.message

    def test_d201_propagates_across_modules(self):
        findings, _ = analyze(
            {
                "a.py": "from b import helper\ndef entry():\n    return helper()\n",
                "b.py": "import random\ndef helper():\n    return random.random()\n",
            }
        )
        d201 = [f for f in findings if f.rule == "D201"]
        entry = [f for f in d201 if f.path == "a.py"]
        assert entry, d201
        # The witness chain names every hop down to the seed site.
        assert "entry -> helper -> b.py:3" in entry[0].message

    def test_d201_unseeded_construction_seeds_taint(self):
        findings, _ = analyze(
            {
                "a.py": (
                    "import random\n"
                    "def entry():\n"
                    "    r = random.Random()\n"
                    "    return r\n"
                )
            }
        )
        assert "D201" in rules_of(findings)

    def test_seeded_rng_is_clean(self):
        findings, _ = analyze(
            {
                "a.py": (
                    "import random\n"
                    "def entry(seed):\n"
                    "    rng = random.Random(seed)\n"
                    "    return rng.random()\n"
                )
            }
        )
        assert findings == []

    def test_entropy_owner_module_is_exempt(self):
        findings, _ = analyze(
            {
                "radio/clock.py": (
                    "import random\ndef jitter():\n    return random.random()\n"
                )
            }
        )
        assert findings == []

    def test_allow_directive_kills_the_cascade(self):
        findings, _ = analyze(
            {
                "a.py": (
                    "import random\n"
                    "def entry():\n"
                    "    return random.random()  # lint: allow[D101] -- reviewed\n"
                )
            }
        )
        assert findings == []

    def test_method_call_chain(self):
        findings, _ = analyze(
            {
                "a.py": (
                    "import random\n"
                    "class Engine:\n"
                    "    def run(self):\n"
                    "        return self._draw()\n"
                    "    def _draw(self):\n"
                    "        return random.random()\n"
                )
            }
        )
        d201 = [f for f in findings if f.rule == "D201"]
        assert any("Engine.run" in f.message for f in d201)


class TestClockFlow:
    def test_d204_direct(self):
        findings, _ = analyze(
            {"a.py": "import time\ndef entry():\n    return time.time()\n"}
        )
        assert rules_of(findings) == ["D204"]

    def test_clock_exempt_module_does_not_seed(self):
        findings, _ = analyze(
            {
                "obs/tracing.py": (
                    "import time\ndef span():\n    return time.monotonic()\n"
                )
            }
        )
        assert findings == []

    def test_wall_helper_call_seeds_at_the_caller(self):
        # The clock owner's wall_* helpers are themselves sanctioned, but
        # calling one from a non-exempt module is a wall-clock read.
        findings, _ = analyze(
            {
                "radio/clock.py": (
                    "import time\ndef wall_monotonic():\n    return time.monotonic()\n"
                ),
                "a.py": (
                    "from radio.clock import wall_monotonic\n"
                    "def entry():\n"
                    "    return wall_monotonic()\n"
                ),
            }
        )
        d204 = [f for f in findings if f.rule == "D204"]
        assert [f.path for f in d204] == ["a.py"]
        assert "wall_monotonic" in d204[0].message

    def test_sleep_is_not_a_clock_read(self):
        findings, _ = analyze(
            {"a.py": "import time\ndef entry():\n    time.sleep(0.1)\n"}
        )
        assert findings == []


class TestRngDefaults:
    UNGUARDED = (
        "def draw(rng=None):\n"
        "    return rng.random()\n"
        "def entry():\n"
        "    return draw()\n"
    )

    def test_d202_unguarded_default_exercised(self):
        findings, _ = analyze({"a.py": self.UNGUARDED})
        d202 = [f for f in findings if f.rule == "D202"]
        assert len(d202) == 1
        assert "exercised by entry" in d202[0].message

    def test_guarded_default_is_clean(self):
        findings, _ = analyze(
            {
                "a.py": (
                    "import random\n"
                    "def draw(rng=None):\n"
                    "    rng = rng or random.Random(0)\n"
                    "    return rng.random()\n"
                    "def entry():\n"
                    "    return draw()\n"
                )
            }
        )
        assert [f for f in findings if f.rule == "D202"] == []

    def test_caller_passing_rng_is_clean(self):
        findings, _ = analyze(
            {
                "a.py": (
                    "import random\n"
                    "def draw(rng=None):\n"
                    "    return rng.random()\n"
                    "def entry(seed):\n"
                    "    return draw(rng=random.Random(seed))\n"
                )
            }
        )
        assert [f for f in findings if f.rule == "D202"] == []

    def test_unseeded_default_expression(self):
        findings, _ = analyze(
            {
                "a.py": (
                    "import random\n"
                    "def draw(rng=random.Random()):\n"
                    "    return rng.random()\n"
                    "def entry():\n"
                    "    return draw()\n"
                )
            }
        )
        assert "D202" in rules_of(findings)


class TestContainerEscape:
    def test_d203_set_literal(self):
        findings, _ = analyze(
            {
                "a.py": (
                    "import random\n"
                    "def entry(seed):\n"
                    "    rng = random.Random(seed)\n"
                    "    pool = {rng}\n"
                    "    return pool\n"
                )
            }
        )
        d203 = [f for f in findings if f.rule == "D203"]
        assert len(d203) == 1
        assert d203[0].severity.value == "warning"

    def test_d203_set_add(self):
        findings, _ = analyze(
            {
                "a.py": (
                    "def entry(rng):\n"
                    "    pool = set()\n"
                    "    pool.add(rng)\n"
                    "    return pool\n"
                )
            }
        )
        assert "D203" in rules_of(findings)

    def test_list_escape_is_fine(self):
        findings, _ = analyze(
            {"a.py": "def entry(rng):\n    return [rng]\n"}
        )
        assert findings == []


class TestWireTypes:
    def test_w401_non_vocabulary_type(self):
        findings, _ = analyze(
            {
                "a.py": (
                    "class Rogue:\n"
                    "    def __init__(self):\n"
                    "        self.x = 1\n"
                    "def payload_to_wire(p):\n"
                    "    return p\n"
                    "def entry():\n"
                    "    r = Rogue()\n"
                    "    return payload_to_wire(r)\n"
                )
            }
        )
        w401 = [f for f in findings if f.rule == "W401"]
        assert len(w401) == 1
        assert "Rogue" in w401[0].message

    def test_dataclass_vocabulary_is_clean(self):
        findings, _ = analyze(
            {
                "a.py": (
                    "from dataclasses import dataclass\n"
                    "@dataclass\n"
                    "class Packet:\n"
                    "    x: int\n"
                    "def packet_to_wire(p):\n"
                    "    return p\n"
                    "def entry():\n"
                    "    p = Packet(1)\n"
                    "    return packet_to_wire(p)\n"
                )
            }
        )
        assert [f for f in findings if f.rule == "W401"] == []

    def test_undeclared_dataclass_is_outside_the_vocabulary(self):
        # Once the tree declares layouts, W3xx takes the vocabulary from
        # them; W401 agrees, so an undeclared dataclass handed to either
        # codec form (wire.encode or a *_to_wire function) is flagged.
        findings, _ = analyze(
            {
                "wire.py": "def layout(**facts):\n    return facts\ndef encode(obj):\n    return obj\n",
                "core/packet.py": (
                    "from dataclasses import dataclass\n"
                    "from ..wire import layout\n"
                    "@layout()\n"
                    "@dataclass\n"
                    "class Packet:\n"
                    "    x: int\n"
                ),
                "core/summary.py": (
                    "from dataclasses import dataclass\n"
                    "@dataclass\n"
                    "class Summary:\n"
                    "    x: int\n"
                ),
                "core/codecs.py": (
                    "from ..wire import encode\n"
                    "from .packet import Packet\n"
                    "from .summary import Summary\n"
                    "def summary_to_wire(s):\n"
                    "    return s\n"
                    "def entry():\n"
                    "    encode(Packet(1))\n"
                    "    encode(Summary(1))\n"
                    "    return summary_to_wire(Summary(1))\n"
                ),
            }
        )
        w401 = sorted((f for f in findings if f.rule == "W401"), key=lambda f: f.line)
        assert [(f.path, f.line) for f in w401] == [("core/codecs.py", 8), ("core/codecs.py", 9)]
        assert "Summary flows into wire codec encode" in w401[0].message
        assert "Summary flows into wire codec summary_to_wire" in w401[1].message


class TestRealTreeCodec:
    ROGUE = (
        "from dataclasses import dataclass\n"
        "\n"
        "from .wire import encode\n"
        "\n"
        "\n"
        "@dataclass\n"
        "class Rogue:\n"
        "    x: int\n"
        "\n"
        "\n"
        "def leak():\n"
        "    return encode(Rogue(1))\n"
    )

    def test_encode_of_an_undeclared_dataclass_is_flagged(self):
        sources = collect_sources(SRC_ROOT) + [SourceFile.from_text("rogue.py", self.ROGUE)]
        findings = FlowAnalyzer().analyze(sources)
        w401 = [f for f in findings if f.rule == "W401"]
        assert [(f.path, f.line) for f in w401] == [("rogue.py", 12)]
        assert "Rogue flows into wire codec encode" in w401[0].message


class TestEntryPoints:
    def test_entry_modules_scope_the_verdicts(self):
        files = {
            "core/campaign.py": (
                "import random\ndef run():\n    return random.random()\n"
            ),
            "util.py": "import random\ndef helper():\n    return random.random()\n",
        }
        findings, analyzer = analyze(files)
        d201 = [f for f in findings if f.rule == "D201"]
        # Only the entry module's function is judged; util.helper is not
        # an entry point once a real entry module exists in the tree.
        assert [f.path for f in d201] == ["core/campaign.py"]
        assert list(analyzer.manifest["entry_points"]) == [
            "core/campaign.py::run"
        ]

    def test_private_functions_are_not_entries(self):
        findings, analyzer = analyze(
            {"a.py": "import random\ndef _helper():\n    return random.random()\n"}
        )
        assert findings == []
        assert analyzer.manifest["entry_points"] == {}


class TestCallGraph:
    def test_import_resolution_and_edges(self):
        sources = tree(
            {
                "a.py": "from b import f\ndef g():\n    return f()\n",
                "b.py": "def f():\n    return 1\n",
            }
        )
        graph = CallGraph({s.rel: summarize_text(s.rel, s.text) for s in sources})
        assert graph.edges["a.py::g"][0][0] == "b.py::f"
        assert graph.redges["b.py::f"][0][0] == "a.py::g"

    def test_typed_receiver_resolution(self):
        sources = tree(
            {
                "a.py": (
                    "from b import Engine\n"
                    "def g():\n"
                    "    e = Engine()\n"
                    "    return e.step()\n"
                ),
                "b.py": (
                    "class Engine:\n"
                    "    def step(self):\n"
                    "        return 1\n"
                ),
            }
        )
        graph = CallGraph({s.rel: summarize_text(s.rel, s.text) for s in sources})
        callees = {c for c, _, _ in graph.edges["a.py::g"]}
        assert "b.py::Engine.step" in callees

    def test_inherited_method_resolution(self):
        sources = tree(
            {
                "a.py": (
                    "class Base:\n"
                    "    def step(self):\n"
                    "        return 1\n"
                    "class Child(Base):\n"
                    "    def run(self):\n"
                    "        return self.step()\n"
                ),
            }
        )
        graph = CallGraph({s.rel: summarize_text(s.rel, s.text) for s in sources})
        callees = {c for c, _, _ in graph.edges["a.py::Child.run"]}
        assert "a.py::Base.step" in callees


class TestManifest:
    def test_drift_detection(self):
        clean = {"a.py": "def entry():\n    return 1\n"}
        dirty = {"a.py": "import time\ndef entry():\n    return time.time()\n"}
        _, before = analyze(clean)
        _, after = analyze(dirty)
        drift = diff_manifests(before.manifest, after.manifest)
        assert any("pure-given-seed -> clock-tainted" in line for line in drift)
        assert diff_manifests(before.manifest, before.manifest) == []

    def test_manifest_counts(self):
        _, analyzer = analyze(
            {
                "a.py": (
                    "import time\n"
                    "def clean():\n"
                    "    return 1\n"
                    "def dirty():\n"
                    "    return time.time()\n"
                )
            }
        )
        summary = analyzer.manifest["summary"]
        assert summary["entry_points"] == 2
        assert summary["pure"] == 1
        assert summary["tainted"] == 1
        assert analyzer.manifest["tainted_entry_points"] == ["a.py::dirty"]
