"""Unit tests for the wire-safety rule family (W301/W302)."""

import ast
from pathlib import Path

from repro.lint.base import SourceFile, collect_sources
from repro.lint.wiresafety import WireSafetyAnalyzer, wire_vocabulary

SRC_ROOT = Path(__file__).resolve().parents[1] / "src" / "repro"

HEADER = "from dataclasses import dataclass\nfrom typing import *\n"


def make_source(text, rel="mod.py"):
    return SourceFile(
        path=Path(rel), rel=rel, text=text, tree=ast.parse(text),
        lines=text.splitlines(),
    )


def lint(*sources):
    return WireSafetyAnalyzer().analyze([make_source(text, rel) for rel, text in sources])


def rules(findings):
    return [f.rule for f in findings]


class TestSyntheticDataclasses:
    """Without any @layout in the tree every module-level dataclass is a root."""

    def test_clean_dataclass_passes(self):
        text = HEADER + (
            "@dataclass\n"
            "class P:\n"
            "    a: int\n"
            "    b: Optional[str]\n"
            "    c: List[bytes]\n"
            "    d: Dict[str, float]\n"
            "    e: Tuple[int, ...]\n"
            "    f: FrozenSet[int]\n"
            "    g: bool = True\n"
        )
        assert lint(("mod.py", text)) == []

    def test_any_flagged(self):
        text = HEADER + "@dataclass\nclass P:\n    x: Any\n"
        findings = lint(("mod.py", text))
        assert rules(findings) == ["W301"]
        assert "'x'" in findings[0].message

    def test_object_inside_container_flagged(self):
        text = HEADER + "@dataclass\nclass P:\n    x: List[object]\n"
        assert rules(lint(("mod.py", text))) == ["W301"]

    def test_unknown_name_flagged(self):
        text = HEADER + "@dataclass\nclass P:\n    x: Mystery\n"
        findings = lint(("mod.py", text))
        assert rules(findings) == ["W302"]
        assert "Mystery" in findings[0].message

    def test_nested_dataclass_checked_recursively(self):
        text = HEADER + (
            "@dataclass\n"
            "class Inner:\n"
            "    bad: Any\n"
            "@dataclass\n"
            "class Outer:\n"
            "    inner: List[Inner]\n"
        )
        findings = lint(("mod.py", text))
        # Inner is reported once even though it is both a root and nested.
        assert rules(findings) == ["W301"]
        assert "Inner" in findings[0].message

    def test_enum_field_passes(self):
        text = HEADER + (
            "from enum import Enum\n"
            "class Kind(Enum):\n"
            "    A = 'a'\n"
            "@dataclass\n"
            "class P:\n"
            "    kind: Kind\n"
        )
        assert lint(("mod.py", text)) == []

    def test_plain_class_field_flagged(self):
        text = HEADER + (
            "class Opaque:\n"
            "    pass\n"
            "@dataclass\n"
            "class P:\n"
            "    o: Opaque\n"
        )
        findings = lint(("mod.py", text))
        assert rules(findings) == ["W301"]
        assert "no wire codec" in findings[0].message

    def test_alias_resolution(self):
        text = HEADER + (
            "Signature = Tuple[int, str, Optional[int]]\n"
            "@dataclass\n"
            "class P:\n"
            "    sig: Signature\n"
        )
        assert lint(("mod.py", text)) == []

    def test_bad_alias_flagged(self):
        text = HEADER + (
            "Blob = Dict[str, Any]\n"
            "@dataclass\n"
            "class P:\n"
            "    blob: Blob\n"
        )
        assert rules(lint(("mod.py", text))) == ["W301"]

    def test_forward_reference_string(self):
        text = HEADER + (
            "@dataclass\n"
            "class P:\n"
            "    x: 'List[Any]'\n"
        )
        assert rules(lint(("mod.py", text))) == ["W301"]

    def test_classvar_ignored(self):
        text = HEADER + (
            "@dataclass\n"
            "class P:\n"
            "    registry: ClassVar[Any] = None\n"
            "    x: int = 0\n"
        )
        assert lint(("mod.py", text)) == []


class TestDeclaredRoots:
    """With @layout declarations in the tree, they are the roots."""

    MODELS = HEADER + (
        "from repro.wire import layout\n"
        "@layout()\n"
        "@dataclass\n"
        "class Wire:\n"
        "    a: int\n"
        "@dataclass\n"
        "class Local:\n"
        "    bad: Any\n"
    )

    def test_only_declared_classes_are_roots(self):
        # Local (with its Any field) is declared nowhere and no root
        # reaches it, so it is outside the wire vocabulary.
        assert lint(("models.py", self.MODELS)) == []

    def test_declared_class_is_checked(self):
        text = self.MODELS.replace("@dataclass\nclass Local", "@layout(row=True)\n@dataclass\nclass Local")
        findings = lint(("models.py", text))
        assert rules(findings) == ["W301"]
        assert "of Local" in findings[0].message

    def test_classes_a_root_reaches_are_checked(self):
        text = self.MODELS.replace("    a: int\n", "    a: int\n    local: Optional['Local']\n")
        findings = lint(("models.py", text))
        assert rules(findings) == ["W301"]
        assert "'bad' of Local" in findings[0].message

    def test_other_decorator_calls_are_not_declarations(self):
        text = self.MODELS.replace("@dataclass\nclass Local", "@register(layout=True)\n@dataclass\nclass Local")
        assert lint(("models.py", text)) == []

    def test_qualified_layout_is_a_declaration(self):
        text = self.MODELS.replace("@dataclass\nclass Local", "@wire.layout()\n@dataclass\nclass Local")
        assert rules(lint(("models.py", text))) == ["W301"]


class TestViaAdapters:
    """A field with a via= adapter crosses the wire as its wire type."""

    OPAQUE = HEADER + (
        "from repro.wire import layout\n"
        "class Opaque:\n"
        "    pass\n"
        "{decorator}\n"
        "@dataclass\n"
        "class P:\n"
        "    o: Opaque\n"
    )

    def test_adapter_replaces_the_annotation(self):
        text = self.OPAQUE.format(decorator="@layout(via={'o': (List[int], list, Opaque)})")
        assert lint(("mod.py", text)) == []

    def test_field_without_adapter_is_checked(self):
        text = self.OPAQUE.format(decorator="@layout(via={'other': (List[int], list, list)})")
        findings = lint(("mod.py", text))
        assert rules(findings) == ["W301"]
        assert "class Opaque has no wire codec" in findings[0].message

    def test_adapter_wire_type_is_checked(self):
        text = self.OPAQUE.format(decorator="@layout(via={'o': (Dict[str, Any], dict, Opaque)})")
        findings = lint(("mod.py", text))
        assert rules(findings) == ["W301"]
        assert findings[0].line == text.splitlines().index("    o: Opaque") + 1
        assert "via adapter of field 'o' of P: Any" in findings[0].message

    def test_adapter_wire_type_reaches_dataclasses(self):
        text = self.OPAQUE.format(
            decorator="@layout(via={'o': (List[Row], list, Opaque)})"
        ) + "@dataclass\nclass Row:\n    blob: object\n"
        findings = lint(("mod.py", text))
        assert rules(findings) == ["W301"]
        assert "'blob' of Row" in findings[0].message


#: Classes the vocabulary held before it was derived from @layout (the
#: module-level imports of core/resultio.py and what they reached), less
#: WireError/WireVersionError (exceptions) and VerifiedUnique/
#: VerifiedFinding (they cross the wire only as UniqueRow rows).
EARLIER_VOCABULARY = {
    "BugRecord", "CampaignResult", "ControllerProperties", "DegradationRecord",
    "DetectionMark", "FaultPlan", "FaultSpec", "FuzzResult", "JobSpec",
    "JobStatus", "MetricsSnapshot", "Mode", "ObservedKind", "SessionBugRecord",
    "SessionPlan", "SessionResult", "SpanStats", "TimelinePoint", "TraceRecord",
    "UniqueRow", "VFuzzResult",
}

#: Layouts, and classes they reach, that only the declarations name.
DECLARED_ONLY = {
    "JobLine", "UnitLine", "DoneLine", "MetricsDocument", "BenchDocument",
    "BenchEntry", "PurityManifest", "EntryVerdict", "SpanEntry", "SessionOp",
}


class TestRealTree:
    def test_wire_vocabulary_is_clean(self):
        sources = collect_sources(SRC_ROOT)
        assert WireSafetyAnalyzer().analyze(sources) == []

    def test_vocabulary_is_derived_from_the_declarations(self):
        vocabulary = set(wire_vocabulary(collect_sources(SRC_ROOT)))
        assert EARLIER_VOCABULARY | DECLARED_ONLY == vocabulary
        # BugLog crosses only through FuzzResult's bug_log adapter.
        assert "BugLog" not in vocabulary

    def test_wal_line_field_is_checked(self):
        rel = "serve/checkpoint.py"
        sources = collect_sources(SRC_ROOT)
        (source,) = [s for s in sources if s.rel == rel]
        anchor = "class DoneLine:\n    job_id: str\n    state: str\n    error: str\n"
        assert anchor in source.text
        text = source.text.replace(anchor, anchor + "    extra: Any\n")
        line = text.splitlines().index("    extra: Any") + 1
        sources = [SourceFile.from_text(rel, text) if s.rel == rel else s for s in sources]
        findings = WireSafetyAnalyzer().analyze(sources)
        assert [(f.rule, f.path, f.line) for f in findings] == [("W301", rel, line)]
        assert "field 'extra' of DoneLine" in findings[0].message
