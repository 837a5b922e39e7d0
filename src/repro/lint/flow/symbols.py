"""Per-file symbol extraction for the interprocedural flow engine.

:func:`summarize_source` reduces one parsed module to a plain JSON-clean
*summary* dict: imports, classes (with method lists and attribute types
inferred from ``self.x = ClassName(...)`` assignments), and one entry
per function carrying everything the link/fixpoint stage needs —
parameter signatures, rng-parameter facts, direct entropy/clock taint
sites, unordered-container escapes, and symbolic call sites.

The summary is a pure function of the file's text and JSON-clean, and
findings are derived *only* from summaries (never from live AST
objects), so every run over the same text is byte-identical.

Call sites are recorded *symbolically* — the name as written plus the
receiver's statically inferred class, if any — and resolved against the
project-wide symbol table later (:mod:`repro.lint.flow.callgraph`).
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..base import SourceFile, allow_directives_for_lines, class_kind, dotted_name
from ..determinism import classify_call, import_aliases

#: Parameter names treated as seeded-generator carriers.
_RNG_NAMES = frozenset({"rng"})

#: Allow directives that silence a taint *seed* (the site has been
#: human-reviewed): the syntactic rule for the site, or the flow rule
#: the seed would feed.  Keyed by taint kind.
_SEED_ALLOW_RULES = {
    "entropy": frozenset({"D101", "D102", "D201"}),
    "unseeded": frozenset({"D102", "D201"}),
    "clock": frozenset({"D101", "D204"}),
}


def _is_rng_param(name: str, annotation: Optional[ast.expr]) -> bool:
    if name in _RNG_NAMES or name.endswith("_rng"):
        return True
    if annotation is not None:
        rendered = ast.dump(annotation)
        if "Random" in rendered:
            return True
    return False


def _annotation_class(annotation: Optional[ast.expr]) -> Optional[str]:
    """The class name an annotation pins, unwrapping ``Optional[...]``."""
    if annotation is None:
        return None
    node = annotation
    if isinstance(node, ast.Subscript):
        head = (dotted_name(node.value) or "").split(".")[-1]
        if head == "Optional":
            node = node.slice
        else:
            return None
    name = dotted_name(node)
    if name is None:
        return None
    return name


def _classify_default(
    default: Optional[ast.expr], aliases: Dict[str, str]
) -> str:
    """Kind of an rng parameter's default: required/none/seeded/unseeded/other."""
    if default is None:
        return "required"
    if isinstance(default, ast.Constant) and default.value is None:
        return "none"
    if isinstance(default, ast.Call):
        classified = classify_call(default, aliases)
        if classified is not None and classified[1] == "unseeded":
            return "unseeded"
        origin = dotted_name(default.func) or ""
        if origin.split(".")[-1] == "Random" and (default.args or default.keywords):
            return "seeded"
    return "other"


class _FunctionSummarizer:
    """Walk one function body and extract its local flow facts."""

    def __init__(
        self,
        func: ast.AST,
        aliases: Dict[str, str],
        directives: Dict[int, Tuple[Set[str], bool]],
        class_name: Optional[str],
        class_attr_types: Dict[str, str],
        module_rng_names: Set[str],
    ):
        self.func = func
        self.aliases = aliases
        self.directives = directives
        self.class_name = class_name
        self.class_attr_types = class_attr_types
        self.entropy_sites: List[List] = []
        self.unseeded_sites: List[List] = []
        self.clock_sites: List[List] = []
        self.d203_sites: List[List] = []
        self.calls: List[dict] = []
        self.returns_rng = False
        # rng-typed local names: rng-ish params + seeded constructions.
        self.rng_locals: Set[str] = set(module_rng_names)
        # local name -> inferred class name (as written); "?" = conflicting.
        self.local_types: Dict[str, str] = {}
        self.set_locals: Set[str] = set()
        self.rng_params: Dict[str, dict] = {}
        self._guarded: Set[str] = set()
        self._raw_draws: Set[str] = set()

    # -- entry -----------------------------------------------------------------

    def run(self) -> dict:
        args = self.func.args
        params: List[str] = []
        positional = list(args.posonlyargs) + list(args.args)
        defaults: List[Optional[ast.expr]] = [None] * (
            len(positional) - len(args.defaults)
        ) + list(args.defaults)
        for arg, default in zip(positional, defaults):
            params.append(arg.arg)
            self._note_param(arg, default)
        kwonly_names = []
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            kwonly_names.append(arg.arg)
            self._note_param(arg, default)
        for node in ast.walk(self.func):
            if node is self.func:
                continue
            self._visit(node)
        rng_params = {}
        for name, info in sorted(self.rng_params.items()):
            info = dict(info)
            info["guarded"] = name in self._guarded
            info["raw_draw"] = name in self._raw_draws
            rng_params[name] = info
        return {
            "line": self.func.lineno,
            "col": self.func.col_offset,
            "params": params,
            "kwonly": kwonly_names,
            "has_varargs": bool(args.vararg or args.kwarg),
            "rng_params": rng_params,
            "entropy_sites": self.entropy_sites,
            "unseeded_sites": self.unseeded_sites,
            "clock_sites": self.clock_sites,
            "d203_sites": self.d203_sites,
            "returns_rng": self.returns_rng,
            "calls": self.calls,
        }

    def _note_param(self, arg: ast.arg, default: Optional[ast.expr]) -> None:
        if arg.arg in ("self", "cls"):
            return
        annotated = _annotation_class(arg.annotation)
        if annotated is not None and "Random" not in annotated:
            self.local_types[arg.arg] = annotated
        if _is_rng_param(arg.arg, arg.annotation):
            self.rng_locals.add(arg.arg)
            self.rng_params[arg.arg] = {
                "default": _classify_default(default, self.aliases)
            }

    # -- per-node --------------------------------------------------------------

    def _allowed(self, kind: str, lineno: int) -> bool:
        """Whether an allow directive on/above *lineno* covers this seed."""
        rules = _SEED_ALLOW_RULES[kind]
        for line in (lineno, lineno - 1):
            entry = self.directives.get(line)
            if entry is not None and entry[0] & rules:
                return True
        return False

    def _is_seeded_rng_call(self, node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        origin = dotted_name(node.func) or ""
        return origin.split(".")[-1] == "Random" and bool(node.args or node.keywords)

    def _rng_expr(self, node: ast.AST) -> bool:
        """Is *node* statically an rng-typed expression?"""
        if isinstance(node, ast.Name):
            return node.id in self.rng_locals
        if isinstance(node, ast.Attribute):
            dotted = dotted_name(node)
            if dotted is None:
                return False
            last = dotted.split(".")[-1]
            return last == "rng" or last.endswith("_rng") or last.startswith("rng")
        if self._is_seeded_rng_call(node):
            return True
        if isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or):
            return any(self._rng_expr(value) for value in node.values)
        return False

    def _visit(self, node: ast.AST) -> None:
        if isinstance(node, ast.Call):
            self._visit_call(node)
        elif isinstance(node, ast.Assign):
            self._visit_assign(node)
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            if isinstance(node.target, ast.Name):
                self._bind(node.target.id, node.value)
        elif isinstance(node, ast.Return) and node.value is not None:
            if self._rng_expr(node.value):
                self.returns_rng = True
        elif isinstance(node, ast.Set):
            for element in node.elts:
                self._check_escape(element, "set literal")
        elif isinstance(node, ast.Dict):
            for key in node.keys:
                if key is not None:
                    self._check_escape(key, "dict key")

    def _visit_assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            if isinstance(target, ast.Name):
                self._bind(target.id, node.value)
            elif isinstance(target, ast.Attribute):
                # self._rng = rng or Random(0): the guard pattern.
                if isinstance(node.value, ast.BoolOp) and isinstance(
                    node.value.op, ast.Or
                ):
                    self._note_guard(node.value)

    def _note_guard(self, value: ast.BoolOp) -> None:
        names = [v.id for v in value.values if isinstance(v, ast.Name)]
        fallback_seeded = any(
            self._is_seeded_rng_call(v) for v in value.values
        )
        if fallback_seeded:
            for name in names:
                if name in self.rng_params:
                    self._guarded.add(name)

    def _bind(self, name: str, value: ast.expr) -> None:
        if self._rng_expr(value):
            self.rng_locals.add(name)
            if isinstance(value, ast.BoolOp) and isinstance(value.op, ast.Or):
                self._note_guard(value)
            return
        if isinstance(value, ast.Call):
            target = dotted_name(value.func)
            if target is not None:
                head = target.split(".")[-1]
                if head in ("set", "frozenset"):
                    self.set_locals.add(name)
                    return
                if head[:1].isupper():
                    previous = self.local_types.get(name)
                    self.local_types[name] = (
                        head if previous in (None, head) else "?"
                    )
                    return
        if isinstance(value, (ast.Set, ast.SetComp)):
            self.set_locals.add(name)
            return
        # any other rebind invalidates a previous inference
        self.local_types.pop(name, None)

    def _check_escape(self, element: ast.expr, where: str) -> None:
        if self._rng_expr(element) and not isinstance(element, ast.Call):
            label = dotted_name(element) or "<rng>"
            self.d203_sites.append(
                [element.lineno, element.col_offset, f"{label} ({where})"]
            )

    # -- calls -----------------------------------------------------------------

    def _arg0_class(self, node: ast.Call) -> Optional[str]:
        if not node.args:
            return None
        first = node.args[0]
        if isinstance(first, ast.Name):
            inferred = self.local_types.get(first.id)
            return inferred if inferred not in (None, "?") else None
        if isinstance(first, ast.Call):
            target = dotted_name(first.func)
            if target is not None and target.split(".")[-1][:1].isupper():
                return target.split(".")[-1]
        return None

    def _visit_call(self, node: ast.Call) -> None:
        classified = classify_call(node, self.aliases)
        if classified is not None:
            _rule, kind, message, _hint = classified
            if not self._allowed(kind, node.lineno):
                site = [node.lineno, node.col_offset, message]
                if kind == "entropy":
                    self.entropy_sites.append(site)
                elif kind == "unseeded":
                    self.unseeded_sites.append(site)
                else:
                    self.clock_sites.append(site)
            return
        self._record_call(node)

    def _record_call(self, node: ast.Call) -> None:
        func = node.func
        if isinstance(func, ast.Attribute) and self._rng_expr(func.value):
            # A draw from an rng-typed value: clean by design, but note
            # raw draws from an rng parameter (feeds the D202 verdict).
            if isinstance(func.value, ast.Name) and func.value.id in self.rng_params:
                self._raw_draws.add(func.value.id)
            return
        call: dict = {
            "line": node.lineno,
            "col": node.col_offset,
            "nargs": len(node.args),
            "kwargs": sorted(
                kw.arg for kw in node.keywords if kw.arg is not None
            ),
            "has_star": any(isinstance(a, ast.Starred) for a in node.args)
            or any(kw.arg is None for kw in node.keywords),
        }
        arg0 = self._arg0_class(node)
        if arg0 is not None:
            call["arg0_class"] = arg0
        if isinstance(func, ast.Name):
            call["kind"] = "name"
            call["target"] = func.id
        elif isinstance(func, ast.Attribute):
            receiver = func.value
            if isinstance(receiver, ast.Name):
                if receiver.id == "self" and self.class_name is not None:
                    call["kind"] = "self"
                    call["target"] = func.attr
                    call["recv_class"] = self.class_name
                elif receiver.id in self.set_locals and func.attr == "add":
                    if node.args and self._rng_expr(node.args[0]):
                        label = dotted_name(node.args[0]) or "<rng>"
                        self.d203_sites.append(
                            [
                                node.lineno,
                                node.col_offset,
                                f"{label} (set.add)",
                            ]
                        )
                    return
                elif receiver.id in self.local_types and self.local_types[
                    receiver.id
                ] != "?":
                    call["kind"] = "typed"
                    call["target"] = func.attr
                    call["recv_class"] = self.local_types[receiver.id]
                else:
                    call["kind"] = "dotted"
                    call["target"] = dotted_name(func) or func.attr
            elif (
                isinstance(receiver, ast.Attribute)
                and isinstance(receiver.value, ast.Name)
                and receiver.value.id == "self"
                and receiver.attr in self.class_attr_types
            ):
                call["kind"] = "typed"
                call["target"] = func.attr
                call["recv_class"] = self.class_attr_types[receiver.attr]
            else:
                dotted = dotted_name(func)
                if dotted is None:
                    return  # dynamic receiver: out of the engine's remit
                call["kind"] = "dotted"
                call["target"] = dotted
        else:
            return
        self.calls.append(call)


def _module_imports(tree: ast.Module) -> Dict[str, dict]:
    """Every import binding: local name -> {kind, module, symbol, level}."""
    imports: Dict[str, dict] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for name in node.names:
                local = name.asname or name.name.split(".")[0]
                imports[local] = {
                    "kind": "module",
                    "module": name.name,
                    "level": 0,
                }
        elif isinstance(node, ast.ImportFrom):
            for name in node.names:
                if name.name == "*":
                    continue
                imports[name.asname or name.name] = {
                    "kind": "symbol",
                    "module": node.module or "",
                    "symbol": name.name,
                    "level": node.level,
                }
    return imports


def summarize_source(source: SourceFile) -> dict:
    """Reduce one parsed module to its JSON-clean flow summary."""
    aliases = import_aliases(source.tree)
    directives = allow_directives_for_lines(source.lines)

    # Pass 1: classes, their methods and self-attribute types.
    classes: Dict[str, dict] = {}
    module_rng_names: Set[str] = set()
    for node in source.tree.body:
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name) and isinstance(node.value, ast.Call):
                    origin = dotted_name(node.value.func) or ""
                    if origin.split(".")[-1] == "Random":
                        module_rng_names.add(target.id)
        if not isinstance(node, ast.ClassDef):
            continue
        attr_types: Dict[str, str] = {}
        rng_attrs: Set[str] = set()
        methods: List[str] = []
        for item in node.body:
            if not isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            methods.append(item.name)
            for stmt in ast.walk(item):
                if not isinstance(stmt, ast.Assign):
                    continue
                for target in stmt.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        if isinstance(stmt.value, ast.Call):
                            origin = dotted_name(stmt.value.func) or ""
                            head = origin.split(".")[-1]
                            if head == "Random":
                                rng_attrs.add(target.attr)
                            elif head[:1].isupper():
                                attr_types[target.attr] = head
                        elif isinstance(stmt.value, ast.BoolOp) or (
                            isinstance(stmt.value, ast.Name)
                            and (
                                stmt.value.id in _RNG_NAMES
                                or stmt.value.id.endswith("_rng")
                            )
                        ):
                            # self._rng = rng / self._rng = rng or Random(0)
                            rendered = ast.dump(stmt.value)
                            if "rng" in rendered or "Random" in rendered:
                                rng_attrs.add(target.attr)
        classes[node.name] = {
            "kind": class_kind(node),
            "bases": sorted(
                {
                    (dotted_name(base) or "").split(".")[-1]
                    for base in node.bases
                    if dotted_name(base) is not None
                }
            ),
            "methods": sorted(methods),
            "attrs": dict(sorted(attr_types.items())),
            "rng_attrs": sorted(rng_attrs),
        }

    # Pass 2: one summary entry per function and method.
    functions: Dict[str, dict] = {}

    def summarize_function(
        func: ast.AST, qualname: str, class_name: Optional[str]
    ) -> None:
        attr_types = classes.get(class_name, {}).get("attrs", {}) if class_name else {}
        summary = _FunctionSummarizer(
            func,
            aliases,
            directives,
            class_name,
            dict(attr_types),
            set(module_rng_names),
        ).run()
        summary["public"] = not func.name.startswith("_")
        summary["method_of"] = class_name
        functions[qualname] = summary

    for node in source.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            summarize_function(node, node.name, None)
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    summarize_function(item, f"{node.name}.{item.name}", node.name)

    return {
        "rel": source.rel,
        "imports": _module_imports(source.tree),
        "classes": classes,
        "functions": functions,
    }


def summarize_text(rel: str, text: str) -> dict:
    """Summarize from raw text."""
    return summarize_source(SourceFile.from_text(rel, text))
