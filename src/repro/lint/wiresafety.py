"""Wire-safety lint: the codec's declared vocabulary must stay JSON-clean.

Results, plans, job specs, WAL records and metrics cross process
boundaries through :mod:`repro.wire`, which derives every encoder and
decoder from a dataclass's fields and the facts declared next to it with
``@layout(...)``.  A field added with a type the codec cannot represent
(an arbitrary object, ``Any``, a plain class) does not fail loudly at the
definition site — it fails at runtime inside a worker, or worse,
silently truncates data.  This analyzer walks the wire vocabulary
*statically* and proves every reachable field type is representable.

The roots are the classes declared with ``@layout(...)``: the same
declarations the codec reads, so nothing is imported to name them.  A
field with a ``via=`` adapter crosses the wire as the adapter's wire
type, so that type is checked instead of the field's annotation, as the
codec does at runtime.  On a tree with no ``@layout`` at all (the
synthetic unit-test trees) every module-level dataclass is a root.  The
classes the roots reach are the vocabulary (:func:`wire_vocabulary`)
that the flow engine's W401 checks codec arguments against.

Rules
=====

``W301``
    A field of a wire dataclass (or of a dataclass reachable from one)
    has a type the JSON codec cannot represent: ``Any``/``object``, a
    class that is neither a dataclass nor an enum and has no ``via``
    adapter, or an unsupported annotation form.

``W302``
    A wire type annotation references a name the analyzer cannot resolve
    to a class, alias or builtin — usually a typo or a type defined
    outside the linted tree.

Allowed grammar: the atoms ``int``/``float``/``str``/``bool``/``bytes``/
``None``; ``List``/``Sequence``/``Tuple``/``Set``/``FrozenSet``/``Dict``/
``Mapping``/``Optional``/``Union`` (and their lowercase builtins) over
allowed types; ``Enum`` subclasses; nested dataclasses (checked
recursively).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from .base import Analyzer, SourceFile, class_kind, dotted_name
from .findings import LintFinding, Severity

_ATOMS = frozenset({"int", "float", "str", "bool", "bytes", "None", "NoneType"})

_CONTAINERS = frozenset(
    {
        "List",
        "Sequence",
        "Tuple",
        "Set",
        "FrozenSet",
        "Dict",
        "Mapping",
        "Optional",
        "Union",
        "list",
        "tuple",
        "set",
        "frozenset",
        "dict",
    }
)

_BANNED = frozenset({"Any", "object"})


@dataclass
class _ClassInfo:
    source: SourceFile
    node: ast.ClassDef
    kind: str  # "dataclass" | "enum" | "class"
    #: field -> adapter wire type, or ``None`` when not declared with @layout
    via: Optional[Dict[str, ast.expr]]


def _declared_vias(node: ast.ClassDef) -> Optional[Dict[str, ast.expr]]:
    """The ``via=`` wire types of a class declared with ``@layout(...)``.

    ``None`` when the class has no ``@layout``.  An adapter is a
    ``(wire type, to wire, from wire)`` tuple in a dict literal; one
    written any other way is not read, so its field's annotation is
    checked instead.
    """
    for deco in node.decorator_list:
        if not isinstance(deco, ast.Call):
            continue
        if (dotted_name(deco.func) or "").split(".")[-1] != "layout":
            continue
        vias: Dict[str, ast.expr] = {}
        for keyword in deco.keywords:
            if keyword.arg == "via" and isinstance(keyword.value, ast.Dict):
                for key, value in zip(keyword.value.keys, keyword.value.values):
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(value, ast.Tuple)
                        and value.elts
                    ):
                        vias[key.value] = value.elts[0]
        return vias
    return None


def wire_vocabulary(sources: List[SourceFile]) -> List[str]:
    """The wire vocabulary: every class the W3xx roots reach, by name."""
    return sorted(_Proof(sources).run().checked)


class WireSafetyAnalyzer(Analyzer):
    """Prove the codec's declared vocabulary is JSON-representable."""

    name = "wire-safety"
    rules = {
        "W301": "wire dataclass field type is not JSON-representable",
        "W302": "wire type annotation references an unresolvable name",
    }

    def analyze(self, sources: List[SourceFile]) -> List[LintFinding]:
        """Derive the wire vocabulary and type-check it recursively."""
        return _Proof(sources).run().findings


class _Proof:
    """One recursive type check of the wire vocabulary over a tree."""

    def __init__(self, sources: List[SourceFile]):
        self.index: Dict[str, _ClassInfo] = {}
        self.aliases: Dict[str, Tuple[SourceFile, ast.expr]] = {}
        for source in sources:
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef):
                    self.index[node.name] = _ClassInfo(
                        source, node, class_kind(node), _declared_vias(node)
                    )
                elif (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, (ast.Subscript, ast.Name, ast.Attribute))
                ):
                    self.aliases[node.targets[0].id] = (source, node.value)
        #: names of the classes proven so far: the vocabulary
        self.checked: Set[str] = set()
        self.findings: List[LintFinding] = []

    def run(self) -> "_Proof":
        """Check every root: the ``@layout`` classes, else every dataclass."""
        roots = [name for name, info in self.index.items() if info.via is not None] or [
            name for name, info in self.index.items() if info.kind == "dataclass"
        ]
        for name in sorted(roots):
            self.check_class(name)
        return self

    def check_class(self, name: str) -> None:
        if name in self.checked:
            return
        self.checked.add(name)
        info = self.index[name]
        if info.kind != "dataclass":
            return  # enums are codec-clean; plain classes handled at the ref site
        vias = info.via or {}
        for stmt in info.node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            field = stmt.target.id
            base = stmt.annotation
            if isinstance(base, ast.Subscript):
                head = dotted_name(base.value)
                if head is not None and head.split(".")[-1] == "ClassVar":
                    continue
            if field in vias:
                annotation, context = vias[field], f"via adapter of field {field!r} of {name}"
            else:
                annotation, context = stmt.annotation, f"field {field!r} of {name}"
            self.check_annotation(annotation, info.source, stmt.lineno, context)

    def check_annotation(
        self, expr: ast.expr, source: SourceFile, line: int, context: str
    ) -> None:
        def fail(rule: str, why: str, hint: str) -> None:
            self.findings.append(
                LintFinding(
                    rule=rule,
                    severity=Severity.ERROR,
                    path=source.rel,
                    line=line,
                    col=expr.col_offset,
                    message=f"{context}: {why}",
                    hint=hint,
                )
            )

        if isinstance(expr, ast.Constant):
            if expr.value is None or expr.value is Ellipsis:
                return
            if isinstance(expr.value, str):  # forward reference
                try:
                    parsed = ast.parse(expr.value, mode="eval").body
                except SyntaxError:
                    fail("W302", f"unparsable forward reference {expr.value!r}",
                         "fix the annotation string")
                    return
                self.check_annotation(parsed, source, line, context)
                return
            fail("W301", f"literal {expr.value!r} is not a type", "use a real type")
            return

        if isinstance(expr, (ast.Name, ast.Attribute)):
            name = (dotted_name(expr) or "").split(".")[-1]
            if name in _ATOMS or name in _CONTAINERS:
                return
            if name in _BANNED:
                fail(
                    "W301",
                    f"{name} defeats the wire codec's type checking",
                    "use a concrete JSON-representable type",
                )
                return
            info = self.index.get(name)
            if info is not None:
                if info.kind != "class":
                    self.check_class(name)
                    return
                fail(
                    "W301",
                    f"class {name} has no wire codec",
                    "make it a dataclass of JSON-clean fields or declare a "
                    "via= adapter for the field in its class's @layout",
                )
                return
            if name in self.aliases:
                src, target = self.aliases[name]
                self.check_annotation(
                    target, src, target.lineno, f"alias {name} (via {context})"
                )
                return
            fail(
                "W302",
                f"cannot resolve type name {name!r}",
                "define it in the linted tree or use a supported builtin",
            )
            return

        if isinstance(expr, ast.Subscript):
            head = (dotted_name(expr.value) or "").split(".")[-1]
            if head not in _CONTAINERS:
                fail(
                    "W301",
                    f"unsupported generic {head or ast.dump(expr.value)!s}[...]",
                    "use List/Tuple/Set/FrozenSet/Dict/Optional/Union",
                )
                return
            inner = expr.slice
            elements = inner.elts if isinstance(inner, ast.Tuple) else [inner]
            for element in elements:
                self.check_annotation(element, source, line, context)
            return

        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
            self.check_annotation(expr.left, source, line, context)
            self.check_annotation(expr.right, source, line, context)
            return

        fail("W301", "unsupported annotation form", "use the documented type grammar")
