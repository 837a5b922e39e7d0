"""Purity manifest: per-entry-point determinism verdicts, committed.

The flow engine's fixpoint yields a verdict for every campaign entry
point: ``pure-given-seed`` (no global entropy and no wall-clock read is
reachable), ``entropy-tainted`` or ``clock-tainted`` (with the witness
chain).  :func:`manifest_document` freezes those verdicts into a
canonical JSON document committed at the repo root as
``purity_manifest.json``; CI regenerates it and fails on drift, so any
change to the deterministic surface of the campaign/scheduler/faults/obs
layers is an explicit, reviewed diff — not a silent regression the
property suites may or may not catch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from ...wire import encode, is_zero, layout, load_file
from .callgraph import CallGraph, FunctionId
from .taint import TaintState

MANIFEST_SCHEMA = "zcover-purity-manifest"
MANIFEST_VERSION = 1

PURE = "pure-given-seed"
ENTROPY_TAINTED = "entropy-tainted"
CLOCK_TAINTED = "clock-tainted"


@layout(elide={"chains": is_zero})
@dataclass(frozen=True)
class EntryVerdict:
    """One entry point's verdict, its taints and their witness chains."""

    verdict: str
    taints: List[str]
    chains: Dict[str, str] = field(default_factory=dict)


@layout(const=(("schema", MANIFEST_SCHEMA), ("version", MANIFEST_VERSION)))
@dataclass(frozen=True)
class PurityManifest:
    """Layout of the committed manifest document."""

    summary: Dict[str, int]
    modules: Dict[str, Dict[str, int]]
    entry_points: Dict[str, EntryVerdict]
    tainted_entry_points: List[str]


def entry_verdicts(
    graph: CallGraph,
    entries: List[FunctionId],
    entropy: TaintState,
    clock: TaintState,
) -> Dict[FunctionId, EntryVerdict]:
    """One verdict per entry point, keyed by FunctionId."""
    verdicts: Dict[FunctionId, EntryVerdict] = {}
    kinds = (("entropy", ENTROPY_TAINTED, entropy), ("clock", CLOCK_TAINTED, clock))
    for fid in sorted(entries):
        taints = [taint for _, taint, state in kinds if fid in state]
        chains = {kind: state.chain(graph, fid) for kind, _, state in kinds if fid in state}
        verdicts[fid] = EntryVerdict(taints[0] if taints else PURE, taints, chains)
    return verdicts


def manifest_document(
    graph: CallGraph,
    verdicts: Dict[FunctionId, EntryVerdict],
) -> dict:
    """The canonical manifest document (stable key order throughout)."""
    per_module: Dict[str, Dict[str, int]] = {}
    for fid in verdicts:
        rel = graph.function_rel(fid)
        counts = per_module.setdefault(rel, {"entry_points": 0, "pure": 0, "tainted": 0})
        counts["entry_points"] += 1
        counts["pure" if verdicts[fid].verdict == PURE else "tainted"] += 1
    tainted = sorted(f for f in verdicts if verdicts[f].verdict != PURE)
    return encode(
        PurityManifest(
            summary={
                "entry_points": len(verdicts),
                "pure": len(verdicts) - len(tainted),
                "tainted": len(tainted),
                "functions": len(graph.functions),
                "call_edges": graph.edge_count,
            },
            modules={rel: per_module[rel] for rel in sorted(per_module)},
            entry_points={fid: verdicts[fid] for fid in sorted(verdicts)},
            tainted_entry_points=tainted,
        )
    )


def load_manifest(path) -> dict:
    """A committed manifest file, checked against :class:`PurityManifest`
    and in the form :func:`manifest_document` returns."""
    return encode(load_file(PurityManifest, path))


def diff_manifests(committed: dict, current: dict) -> List[str]:
    """Human-readable drift lines between two manifests (empty = clean)."""
    lines: List[str] = []
    old_entries = committed["entry_points"]
    new_entries = current["entry_points"]
    for fid in sorted(set(old_entries) | set(new_entries)):
        old = old_entries.get(fid)
        new = new_entries.get(fid)
        if old is None:
            lines.append(f"+ {fid}: new entry point ({new['verdict']})")
        elif new is None:
            lines.append(f"- {fid}: entry point removed (was {old['verdict']})")
        elif old["verdict"] != new["verdict"]:
            lines.append(f"! {fid}: {old['verdict']} -> {new['verdict']}")
    if not lines and committed != current:
        lines.append("~ manifest metadata drifted (summary/module counts)")
    return lines
