"""Shared analyzer framework: source loading, AST helpers, suppressions.

Every analyzer operates on :class:`SourceFile` objects (path + text +
parsed AST) and returns :class:`~repro.lint.findings.LintFinding` lists.
Inline suppressions use the form::

    something_noisy()  # lint: allow[D101] -- justification for the reader

The rule list is mandatory; the justification after ``--`` is what makes
an allowlist entry reviewable.  An allow comment without a justification
suppresses the finding but earns a ``LINT001`` warning of its own, so
unexplained escapes stay visible.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Set, Tuple

from .findings import LintFinding, Severity

#: ``# lint: allow[D101]`` or ``# lint: allow[D101, W301] -- reason``.
_ALLOW_RE = re.compile(r"#\s*lint:\s*allow\[([A-Za-z0-9,\s]+)\]\s*(?:--\s*(\S.*))?")


@dataclass
class SourceFile:
    """One parsed Python file under the linted root.

    The module is parsed exactly once (in :meth:`load` or the perf
    harness's synthetic constructor); every analyzer that needs a flat
    node walk shares the cached :attr:`nodes` list and every scope-based
    analyzer shares :meth:`scopes`, so a four-family lint run costs one
    ``ast.parse`` and one ``ast.walk`` per file instead of one per
    analyzer.  The ``lint_tree`` perf workload pins this.
    """

    path: Path
    rel: str  # posix path relative to the linted root
    text: str
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    _nodes: Optional[List[ast.AST]] = field(default=None, repr=False)
    _scopes: Optional[list] = field(default=None, repr=False)

    @classmethod
    def load(cls, path: Path, root: Path) -> "SourceFile":
        text = path.read_text(encoding="utf-8")
        tree = ast.parse(text, filename=str(path))
        return cls(
            path=path,
            rel=path.relative_to(root).as_posix(),
            text=text,
            tree=tree,
            lines=text.splitlines(),
        )

    @classmethod
    def from_text(cls, rel: str, text: str) -> "SourceFile":
        """Build an in-memory source (synthetic trees, lint workers)."""
        tree = ast.parse(text, filename=rel)
        return cls(path=Path(rel), rel=rel, text=text, tree=tree, lines=text.splitlines())

    @property
    def nodes(self) -> List[ast.AST]:
        """Flat ``ast.walk`` of the module, computed once and shared."""
        if self._nodes is None:
            self._nodes = list(ast.walk(self.tree))
        return self._nodes

    def scopes(self):
        """Cached ``walk_scopes`` result (module scope + every function)."""
        if self._scopes is None:
            self._scopes = list(walk_scopes(self.tree))
        return self._scopes


def collect_sources(root: Path) -> List[SourceFile]:
    """Load every ``*.py`` under *root*, sorted by relative path."""
    files = sorted(p for p in root.rglob("*.py") if p.is_file())
    return [SourceFile.load(path, root) for path in files]


class Analyzer:
    """Base class: a named rule family over a list of source files."""

    #: Short family name used in reports and the architecture docs.
    name = "analyzer"

    #: rule id -> one-line description (surfaced by ``zcover lint --rules``).
    rules: Dict[str, str] = {}

    # Each family defines ``analyze(sources) -> List[LintFinding]``.


# -- inline suppressions -------------------------------------------------------


def allow_directives_for_lines(lines: List[str]) -> Dict[int, Tuple[Set[str], bool]]:
    """Map 1-based line number -> (allowed rule ids, has justification)."""
    directives: Dict[int, Tuple[Set[str], bool]] = {}
    for lineno, line in enumerate(lines, start=1):
        match = _ALLOW_RE.search(line)
        if match is None:
            continue
        rules = {r.strip() for r in match.group(1).split(",") if r.strip()}
        directives[lineno] = (rules, match.group(2) is not None)
    return directives


def _allow_directives(source: SourceFile) -> Dict[int, Tuple[Set[str], bool]]:
    return allow_directives_for_lines(source.lines)


def apply_suppressions(
    findings: List[LintFinding], sources: List[SourceFile]
) -> List[LintFinding]:
    """Drop findings covered by an allow comment on (or just above) the line.

    Suppressions without a ``--`` justification still suppress, but add a
    ``LINT001`` warning at the directive so the escape stays reviewable.
    """
    by_rel = {source.rel: _allow_directives(source) for source in sources}
    kept: List[LintFinding] = []
    used_unjustified: Set[Tuple[str, int]] = set()
    for finding in findings:
        directives = by_rel.get(finding.path, {})
        matched: Optional[int] = None
        for lineno in (finding.line, finding.line - 1):
            entry = directives.get(lineno)
            if entry is not None and finding.rule in entry[0]:
                matched = lineno
                break
        if matched is None:
            kept.append(finding)
            continue
        if not directives[matched][1]:
            used_unjustified.add((finding.path, matched))
    for path, lineno in sorted(used_unjustified):
        kept.append(
            LintFinding(
                rule="LINT001",
                severity=Severity.WARNING,
                path=path,
                line=lineno,
                col=0,
                message="allow directive without a justification",
                hint="append `-- <why this is safe>` to the allow comment",
            )
        )
    return kept


# -- AST helpers ---------------------------------------------------------------


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render a Name/Attribute chain as ``a.b.c`` (None for anything else)."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


_ENUM_BASES = frozenset({"Enum", "IntEnum", "StrEnum", "IntFlag", "Flag"})


def class_kind(node: ast.ClassDef) -> str:
    """Classify a class statement: ``"dataclass"``, ``"enum"`` or ``"class"``.

    Shared by the wire-safety analyzer (codec vocabulary) and the flow
    engine's symbol table (W401 type inference), so the two passes can
    never disagree about what counts as a wire-capable dataclass.
    """
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = dotted_name(target)
        if name is not None and name.split(".")[-1] == "dataclass":
            return "dataclass"
    for base in node.bases:
        name = dotted_name(base)
        if name is not None and name.split(".")[-1] in _ENUM_BASES:
            return "enum"
    return "class"


def int_const(node: ast.AST) -> Optional[int]:
    """The value of an integer literal (bools excluded), else ``None``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, int) and not isinstance(node.value, bool):
        return node.value
    return None


def walk_scopes(tree: ast.Module):
    """Yield (scope_name, nodes) for the module body and every function.

    The module scope excludes statements nested inside functions, so each
    statement belongs to exactly one scope — what the conformance
    analyzer's per-handler pairing heuristic needs.
    """

    functions: List[ast.AST] = [
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ]
    inside_functions = set()
    for func in functions:
        for child in ast.walk(func):
            if child is not func:
                inside_functions.add(id(child))
    module_nodes = [
        node for node in ast.walk(tree) if id(node) not in inside_functions
    ]
    yield "<module>", module_nodes
    for func in functions:
        if id(func) in inside_functions:
            continue  # nested function: analysed as part of its parent
        yield func.name, list(ast.walk(func))
