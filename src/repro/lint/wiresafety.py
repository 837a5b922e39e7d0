"""Wire-safety lint: worker-boundary dataclasses must stay JSON-clean.

The parallel campaign engine ships results between processes through the
codec in :mod:`repro.core.resultio`, which round-trips a fixed vocabulary
of dataclasses via plain JSON documents (the encoders and decoders are
derived from the dataclass fields by :mod:`repro.wire`).  A field added with a type the
codec cannot represent (an arbitrary object, ``Any``, an un-encoded
class) does not fail loudly at the definition site — it fails at runtime
inside a worker, or worse, silently truncates data.  This analyzer walks
the wire vocabulary *statically* and proves every reachable field type is
representable.

Roots are the types :mod:`repro.core.resultio` imports at module level
from inside the package (function-level imports are deliberately not
part of the wire vocabulary).  On a synthetic tree without
``core/resultio.py`` every module-level dataclass is treated as a root,
which is what the unit tests use.

Rules
=====

``W301``
    A field of a wire dataclass (or of a dataclass reachable from one)
    has a type the JSON codec cannot represent: ``Any``/``object``, a
    class without a registered codec, or an unsupported annotation form.

``W302``
    A wire type annotation references a name the analyzer cannot resolve
    to a class, alias or builtin — usually a typo or a type defined
    outside the linted tree.

Allowed grammar: the atoms ``int``/``float``/``str``/``bool``/``bytes``/
``None``; ``List``/``Sequence``/``Tuple``/``Set``/``FrozenSet``/``Dict``/
``Mapping``/``Optional``/``Union`` (and their lowercase builtins) over
allowed types; ``Enum`` subclasses; nested dataclasses (checked
recursively); classes named in :data:`KNOWN_CODECS`, which cross the
wire through an adapter declared on the field that holds them.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, List, Set, Tuple

from .base import Analyzer, SourceFile, class_kind, dotted_name
from .findings import LintFinding, Severity

#: Non-dataclass types carried through a declared ``repro.wire`` adapter.
KNOWN_CODECS = frozenset({"BugLog"})

#: The wire codec module whose module-level imports define the vocabulary.
WIRE_MODULE = "core/resultio.py"

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


def wire_vocabulary(
    sources: List[SourceFile], wire_module: str = WIRE_MODULE
) -> List[str]:
    """The wire codec's type vocabulary, as local names.

    Types :mod:`repro.core.resultio` imports at module level from inside
    the package.  On a tree without the wire module (synthetic unit-test
    trees) every module-level dataclass is in the vocabulary instead —
    the same fallback both W3xx and the flow engine's W401 use.
    """
    wire = next((s for s in sources if s.rel == wire_module), None)
    if wire is None:
        names = set()
        for source in sources:
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef) and class_kind(node) == "dataclass":
                    names.add(node.name)
        return sorted(names)
    roots: List[str] = []
    for node in wire.tree.body:  # module level only, by design
        if not isinstance(node, ast.ImportFrom):
            continue
        in_package = node.level > 0 or (node.module or "").split(".")[0] == "repro"
        if not in_package:
            continue
        roots.extend(alias.asname or alias.name for alias in node.names)
    return sorted(set(roots))


class WireSafetyAnalyzer(Analyzer):
    """Prove the worker-boundary dataclasses are JSON-representable."""

    name = "wire-safety"
    rules = {
        "W301": "wire dataclass field type is not JSON-representable",
        "W302": "wire type annotation references an unresolvable name",
    }

    def __init__(
        self,
        wire_module: str = WIRE_MODULE,
        known_codecs=KNOWN_CODECS,
    ):
        self._wire_module = wire_module
        self._known_codecs = frozenset(known_codecs)

    def analyze(self, sources: List[SourceFile]) -> List[LintFinding]:
        """Resolve the wire vocabulary and type-check it recursively."""
        index, aliases, functions = self._build_index(sources)
        roots = self._wire_roots(sources, index)
        findings: List[LintFinding] = []
        checked: Set[str] = set()
        for name in roots:
            if name in self._known_codecs or name in functions:
                continue
            info = index.get(name)
            if info is not None:
                self._check_class(name, index, aliases, checked, findings)
            elif name in aliases:
                src, expr = aliases[name]
                self._check_annotation(
                    expr, src, expr.lineno, f"alias {name}", index, aliases, checked, findings
                )
            # names resolving to nothing in-tree (re-exports, typing stubs)
            # are outside this analyzer's remit and skipped silently
        return findings

    # -- indexing --------------------------------------------------------------

    def _build_index(self, sources: List[SourceFile]):
        index: Dict[str, _ClassInfo] = {}
        aliases: Dict[str, Tuple[SourceFile, ast.expr]] = {}
        functions: Set[str] = set()
        for source in sources:
            for node in source.tree.body:
                if isinstance(node, ast.ClassDef):
                    index[node.name] = _ClassInfo(source, node, class_kind(node))
                elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions.add(node.name)
                elif (
                    isinstance(node, ast.Assign)
                    and len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)
                    and isinstance(node.value, (ast.Subscript, ast.Name, ast.Attribute))
                ):
                    aliases[node.targets[0].id] = (source, node.value)
        return index, aliases, functions

    def _wire_roots(
        self, sources: List[SourceFile], index: Dict[str, _ClassInfo]
    ) -> List[str]:
        return wire_vocabulary(sources, self._wire_module)

    # -- recursive type checking -----------------------------------------------

    def _check_class(
        self,
        name: str,
        index: Dict[str, _ClassInfo],
        aliases,
        checked: Set[str],
        findings: List[LintFinding],
    ) -> None:
        if name in checked:
            return
        checked.add(name)
        info = index[name]
        if info.kind != "dataclass":
            return  # enums are codec-clean; plain classes handled at the ref site
        for stmt in info.node.body:
            if not isinstance(stmt, ast.AnnAssign) or not isinstance(
                stmt.target, ast.Name
            ):
                continue
            base = stmt.annotation
            if isinstance(base, ast.Subscript):
                head = dotted_name(base.value)
                if head is not None and head.split(".")[-1] == "ClassVar":
                    continue
            self._check_annotation(
                stmt.annotation,
                info.source,
                stmt.lineno,
                f"field {stmt.target.id!r} of {name}",
                index,
                aliases,
                checked,
                findings,
            )

    def _check_annotation(
        self,
        expr: ast.expr,
        source: SourceFile,
        line: int,
        context: str,
        index: Dict[str, _ClassInfo],
        aliases,
        checked: Set[str],
        findings: List[LintFinding],
    ) -> None:
        def fail(rule: str, why: str, hint: str) -> None:
            findings.append(
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
                self._check_annotation(
                    parsed, source, line, context, index, aliases, checked, findings
                )
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
            info = index.get(name)
            if info is not None:
                if info.kind == "enum":
                    return
                if info.kind == "dataclass":
                    self._check_class(name, index, aliases, checked, findings)
                    return
                if name in self._known_codecs:
                    return
                fail(
                    "W301",
                    f"class {name} has no wire codec",
                    "make it a dataclass of JSON-clean fields or add a codec "
                    "to core/resultio.py and KNOWN_CODECS",
                )
                return
            if name in aliases:
                src, target = aliases[name]
                self._check_annotation(
                    target, src, target.lineno, f"alias {name} (via {context})",
                    index, aliases, checked, findings,
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
                self._check_annotation(
                    element, source, line, context, index, aliases, checked, findings
                )
            return

        if isinstance(expr, ast.BinOp) and isinstance(expr.op, ast.BitOr):
            self._check_annotation(
                expr.left, source, line, context, index, aliases, checked, findings
            )
            self._check_annotation(
                expr.right, source, line, context, index, aliases, checked, findings
            )
            return

        fail("W301", "unsupported annotation form", "use the documented type grammar")
