"""Taint analyses over the call graph: entropy, clock, wire types.

Three analyses run to a fixpoint on the linked
:class:`~repro.lint.flow.callgraph.CallGraph`:

* **entropy flow** — direct global-entropy touches and unseeded-generator
  constructions (classified exactly as D101/D102) seed a backward
  reachability: any function from which a seed is reachable along
  resolved call edges is *entropy-tainted*.  Campaign entry points that
  are entropy-tainted raise ``D201``; rng parameters whose unseeded
  default a resolvable caller actually exercises raise ``D202``; a
  seeded generator escaping into an unordered container raises ``D203``.
* **clock flow** — wall-clock reads (``time.*``, ``datetime.now``…)
  outside the sanctioned owner modules, and calls to the owner's
  ``wall_*`` helpers from non-exempt modules, seed the same backward
  reachability; tainted entry points raise ``D204``.
* **wire-type inference** — statically-typed values flowing into a
  ``*_to_wire`` codec of :mod:`repro.core.resultio` are cross-checked
  against the W3xx wire vocabulary; a type outside it raises ``W401``.

Witness chains are deterministic: propagation is a BFS that visits
functions in sorted id order, so every finding renders the same call
chain on every run.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, List, Tuple

from ..findings import LintFinding, Severity
from ..wiresafety import WIRE_MODULE
from .callgraph import CallGraph, FunctionId

#: Modules whose wall-clock reads are sanctioned *measurements*: the
#: clock owner itself plus the span profiler and the bench harness.
#: Their readings are documented (and runtime-checked elsewhere) never
#: to enter a deterministic artefact, so their internal reads do not
#: taint callers — but a call to a ``wall_*`` helper from any module
#: outside this list does.
DEFAULT_CLOCK_EXEMPT: FrozenSet[str] = frozenset(
    {"radio/clock.py", "obs/tracing.py", "perf/bench.py"}
)

#: The module whose ``wall_*`` functions are the sanctioned readers.
CLOCK_OWNER_MODULE = "radio/clock.py"

#: A taint witness: either a direct seed site in the function itself
#: ("site", line, col, message) or one resolved call hop toward the seed
#: ("call", callee_id, line, col).
Witness = Tuple


class TaintState:
    """Fixpoint result for one taint kind: tainted set + witnesses."""

    def __init__(self) -> None:
        self.witness: Dict[FunctionId, Witness] = {}

    def __contains__(self, fid: FunctionId) -> bool:
        return fid in self.witness

    def chain(self, graph: CallGraph, fid: FunctionId, limit: int = 12) -> str:
        """Render the deterministic witness chain from *fid* to its seed."""
        hops: List[str] = [graph.function_qualname(fid)]
        current = fid
        for _ in range(limit):
            witness = self.witness.get(current)
            if witness is None:
                break
            if witness[0] == "site":
                _tag, line, _col, message = witness
                hops.append(f"{graph.function_rel(current)}:{line} {message}")
                break
            _tag, callee, _line, _col = witness
            hops.append(graph.function_qualname(callee))
            current = callee
        return " -> ".join(hops)


def propagate(
    graph: CallGraph,
    seeds: Dict[FunctionId, Witness],
) -> TaintState:
    """Backward BFS from seed functions over reverse call edges.

    Deterministic: the frontier is processed in sorted order and a
    function's witness is fixed at first visit, so the same summaries
    always produce the same witness chains.
    """
    state = TaintState()
    frontier = sorted(seeds)
    for fid in frontier:
        state.witness[fid] = seeds[fid]
    while frontier:
        next_frontier: List[FunctionId] = []
        for fid in frontier:
            for caller_id, line, col in sorted(graph.redges.get(fid, ())):
                if caller_id in state.witness:
                    continue
                state.witness[caller_id] = ("call", fid, line, col)
                next_frontier.append(caller_id)
        frontier = sorted(set(next_frontier))
    return state


def entropy_seeds(
    graph: CallGraph, entropy_owners: FrozenSet[str]
) -> Dict[FunctionId, Witness]:
    """Functions with direct entropy/unseeded sites outside the owners."""
    seeds: Dict[FunctionId, Witness] = {}
    for fid in sorted(graph.functions):
        rel = graph.function_rel(fid)
        if rel in entropy_owners:
            continue
        func = graph.functions[fid]
        sites = [tuple(s) for s in func["entropy_sites"]]
        sites += [tuple(s) for s in func["unseeded_sites"]]
        if sites:
            line, col, message = min(sites)
            seeds[fid] = ("site", line, col, message)
    return seeds


def clock_seeds(
    graph: CallGraph, clock_exempt: FrozenSet[str]
) -> Dict[FunctionId, Witness]:
    """Functions with wall-clock reads (direct or via ``wall_*`` calls)."""
    seeds: Dict[FunctionId, Witness] = {}
    for fid in sorted(graph.functions):
        rel = graph.function_rel(fid)
        if rel in clock_exempt:
            continue
        func = graph.functions[fid]
        candidates = [tuple(s) for s in func["clock_sites"]]
        # A call to the clock owner's wall_* helpers from a non-exempt
        # module is a wall-clock read in disguise.
        for callee_id, line, col in graph.edges.get(fid, ()):
            callee_rel = graph.function_rel(callee_id)
            callee_name = graph.function_qualname(callee_id)
            if callee_rel == CLOCK_OWNER_MODULE and callee_name.startswith("wall_"):
                candidates.append(
                    (line, col, f"call to {callee_rel}::{callee_name}")
                )
        if candidates:
            line, col, message = min(candidates)
            seeds[fid] = ("site", line, col, message)
    return seeds


def forward_reachable(
    graph: CallGraph, roots: List[FunctionId]
) -> FrozenSet[FunctionId]:
    """All functions reachable from *roots* along call edges."""
    seen = set(roots)
    frontier = sorted(seen)
    while frontier:
        next_frontier: List[FunctionId] = []
        for fid in frontier:
            for callee_id, _line, _col in graph.edges.get(fid, ()):
                if callee_id not in seen:
                    seen.add(callee_id)
                    next_frontier.append(callee_id)
        frontier = sorted(next_frontier)
    return frozenset(seen)


def discover_entry_points(
    graph: CallGraph, entry_modules: Tuple[str, ...]
) -> List[FunctionId]:
    """Campaign entry points: the public surface of the entry modules.

    Top-level public functions plus public methods of public classes in
    every entry module present in the tree.  On a tree containing none
    of them (synthetic unit-test trees) every top-level public function
    is an entry point instead — the same fallback convention the
    conformance and wire-safety analyzers use.
    """
    present = [rel for rel in entry_modules if rel in graph.summaries]
    entries: List[FunctionId] = []
    if present:
        for rel in present:
            for qualname in sorted(graph.summaries[rel]["functions"]):
                func = graph.summaries[rel]["functions"][qualname]
                if not func["public"]:
                    continue
                if func["method_of"] is not None and func["method_of"].startswith("_"):
                    continue
                entries.append(f"{rel}::{qualname}")
        return entries
    for rel in graph.summaries:
        for qualname in sorted(graph.summaries[rel]["functions"]):
            func = graph.summaries[rel]["functions"][qualname]
            if not func["public"]:
                continue
            if func["method_of"] is not None and func["method_of"].startswith("_"):
                continue
            entries.append(f"{rel}::{qualname}")
    return entries


# -- findings ------------------------------------------------------------------


def _finding(rule, severity, rel, line, col, message, hint) -> LintFinding:
    return LintFinding(
        rule=rule, severity=severity, path=rel, line=line, col=col,
        message=message, hint=hint,
    )


def entry_point_findings(
    graph: CallGraph,
    entries: List[FunctionId],
    entropy: TaintState,
    clock: TaintState,
) -> List[LintFinding]:
    """D201/D204: tainted campaign entry points, with witness chains."""
    findings: List[LintFinding] = []
    for fid in entries:
        func = graph.functions[fid]
        rel = graph.function_rel(fid)
        name = graph.function_qualname(fid)
        if fid in entropy:
            findings.append(
                _finding(
                    "D201",
                    Severity.ERROR,
                    rel,
                    func["line"],
                    func["col"],
                    f"global entropy reachable from entry point {name}: "
                    f"{entropy.chain(graph, fid)}",
                    "thread a seeded random.Random through the call chain",
                )
            )
        if fid in clock:
            findings.append(
                _finding(
                    "D204",
                    Severity.ERROR,
                    rel,
                    func["line"],
                    func["col"],
                    f"wall-clock read reachable from entry point {name}: "
                    f"{clock.chain(graph, fid)}",
                    "route timing through SimClock or the sanctioned "
                    "radio.clock owners",
                )
            )
    return findings


def rng_default_findings(
    graph: CallGraph, entry_reachable: FrozenSet[FunctionId]
) -> List[LintFinding]:
    """D202: unseeded rng defaults a resolvable caller actually exercises."""
    findings: List[LintFinding] = []
    for fid in sorted(graph.omissions):
        func = graph.functions[fid]
        rel = graph.function_rel(fid)
        name = graph.function_qualname(fid)
        for param, info in sorted(func["rng_params"].items()):
            if info["default"] == "unseeded":
                hazardous = True
            elif info["default"] == "none":
                hazardous = info["raw_draw"] and not info["guarded"]
            else:
                hazardous = False
            if not hazardous:
                continue
            omitting = sorted(
                (caller, line, col)
                for caller, line, col, omitted in graph.omissions[fid]
                if param in omitted
                and (caller in entry_reachable or not entry_reachable)
            )
            if not omitting:
                continue
            caller, line, _col = omitting[0]
            findings.append(
                _finding(
                    "D202",
                    Severity.ERROR,
                    rel,
                    func["line"],
                    func["col"],
                    f"rng parameter {param!r} of {name} has an unseeded "
                    f"default exercised by {graph.function_qualname(caller)} "
                    f"({graph.function_rel(caller)}:{line})",
                    "seed the fallback (random.Random(0)) or make the "
                    "caller pass its rng",
                )
            )
    return findings


def escape_findings(graph: CallGraph) -> List[LintFinding]:
    """D203: seeded generators escaping into unordered containers."""
    findings: List[LintFinding] = []
    for fid in sorted(graph.functions):
        func = graph.functions[fid]
        rel = graph.function_rel(fid)
        for line, col, label in func["d203_sites"]:
            findings.append(
                _finding(
                    "D203",
                    Severity.WARNING,
                    rel,
                    line,
                    col,
                    f"seeded generator escapes into an unordered container: {label}",
                    "iteration order over the container would be "
                    "hash-seed-dependent; use a list or sorted structure",
                )
            )
    return findings


def wire_type_findings(graph: CallGraph, vocabulary: FrozenSet[str]) -> List[LintFinding]:
    """W401: statically-typed values entering codecs outside *vocabulary*,
    the W3xx wire vocabulary (:func:`repro.lint.wiresafety.wire_vocabulary`)."""
    has_wire_module = WIRE_MODULE in graph.summaries
    findings: List[LintFinding] = []
    seen = set()
    for caller, callee, line, col, _cls_rel, cls_name in sorted(graph.typed_arg0):
        callee_rel = graph.function_rel(callee)
        callee_name = graph.function_qualname(callee)
        if not callee_name.endswith("_to_wire"):
            continue
        if has_wire_module and callee_rel != WIRE_MODULE:
            continue
        if cls_name in vocabulary:
            continue
        key = (caller, line, col, cls_name)
        if key in seen:
            continue
        seen.add(key)
        findings.append(
            _finding(
                "W401",
                Severity.ERROR,
                graph.function_rel(caller),
                line,
                col,
                f"{cls_name} flows into wire codec {callee_name} but is "
                "outside the W3xx wire vocabulary",
                "add the type to the codec's module-level vocabulary "
                "(core/resultio.py) or convert before encoding",
            )
        )
    return findings
