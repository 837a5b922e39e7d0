"""Output checks: the committed digest table and structural invariants.

For the default seed every item's digest must equal the committed one
in ``expected_digests.json``.  For any seed, and for items beyond the
table, structural invariants still hold.  A mismatch or an exception is
a failed item; checking happens outside the timed region, except for
served jobs, whose verification is part of the item.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Dict, List, Optional, Sequence

HERE = os.path.dirname(os.path.abspath(__file__))
DIGEST_FILE = os.path.join(HERE, "expected_digests.json")

#: The workload seed the digest table was generated for.
DEFAULT_SEED = 0


def sha256_text(text) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
    return hashlib.sha256(data).hexdigest()


def load_table(path: str = DIGEST_FILE) -> Dict[str, List[str]]:
    with open(path, encoding="utf-8") as handle:
        doc = json.load(handle)
    if doc.get("seed") != DEFAULT_SEED:
        raise ValueError(f"{path}: digest table is for seed {doc.get('seed')}")
    return doc["digests"]


class Tally:
    """Items attempted and failed for one workload, with the reasons."""

    def __init__(self, expected: Optional[Sequence[str]]):
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.digest_checked = 0
        self.reasons: List[str] = []

    def record(self, index: int, digest: Optional[str], problems: Sequence[str]) -> bool:
        """Count one item; ``False`` (and a failure) on any problem.

        *digest* is ``None`` when the item raised before producing output.
        """
        self.attempted += 1
        problems = list(problems)
        if digest is not None and self.expected is not None and index < len(self.expected):
            self.digest_checked += 1
            if digest != self.expected[index]:
                problems.append(
                    f"digest {digest[:12]} != expected {self.expected[index][:12]}"
                )
        if problems:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"item {index}: " + "; ".join(problems))
            return False
        return True


# -- structural invariants -----------------------------------------------------


def campaign_problems(result, device: str, mode_name: str, duration: float) -> List[str]:
    """Invariants of one campaign result, whatever its seed."""
    from repro.simulator.testbed import PROFILES

    problems = []
    if result.device != device or result.mode.name != mode_name:
        problems.append("result names the wrong device or mode")
    if result.fuzz.packets_sent <= 0:
        problems.append("no packets sent")
    if result.fuzz.duration < duration - 1.0:
        problems.append(f"fuzzed {result.fuzz.duration:.1f}s of {duration:.1f}s")
    planted = set(PROFILES[device].zero_day_ids)
    for unique in result.unique.values():
        if unique.bug_id is None or unique.bug_id not in planted:
            problems.append(f"verified finding {unique.bug_id} is not planted on {device}")
    if result.degradation is not None:
        problems.append("campaign degraded without a fault plan")
    return problems


def session_problems(result, device: str, trials: int) -> List[str]:
    """Invariants of one merged ``run_sessions`` result."""
    from repro.core.session import FLOWS, planted_vuln_ids

    problems = []
    if result.device != device or tuple(result.flows) != FLOWS:
        problems.append("result names the wrong device or flows")
    for flow in FLOWS:
        if result.trials_by_flow.get(flow, 0) < trials:
            problems.append(f"flow {flow} ran {result.trials_by_flow.get(flow)} trials")
    stray = set(result.found_vuln_ids) - set(planted_vuln_ids(FLOWS))
    if stray:
        problems.append(f"unplanted session bugs {sorted(stray)}")
    return problems


def served_problems(spec, body: bytes) -> List[str]:
    """Invariants of one served result document."""
    from repro.serve.protocol import job_id_for

    try:
        doc = json.loads(body.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        return [f"result is not JSON: {exc}"]
    problems = []
    if doc.get("job_id") != job_id_for(spec):
        problems.append("document carries another job id")
    if doc.get("spec", {}).get("kind") != spec.kind:
        problems.append("document echoes another spec")
    if spec.kind == "trials":
        from repro.core.resultio import campaign_from_wire

        trials = doc.get("trials", [])
        if len(trials) != spec.trials or doc.get("failures"):
            problems.append(f"{len(trials)} trials, failures {doc.get('failures')}")
        for wire in trials:
            problems += campaign_problems(
                campaign_from_wire(wire), spec.device, spec.mode.upper(), spec.hours * 3600.0
            )
    elif spec.kind == "sessions":
        if "session" not in doc:
            problems.append("sessions document without a session")
    elif "chaos" not in doc:
        problems.append("chaos document without a chaos report")
    return problems
