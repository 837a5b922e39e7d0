"""Crash triage and proof-of-concept payload minimisation.

After a fuzzing trial the paper's workflow is manual: verify each crash,
deduplicate, and "develop proof-of-concept exploits for selected critical
vulnerabilities".  This module automates the mechanical parts:

* :class:`CrashTriage` — clusters a bug log by verified signature, checks
  each representative's *stability* (does it reproduce on a pristine
  device every time?), and produces a ranked report;
* :class:`PayloadMinimizer` — shrinks a bug-inducing payload to its
  minimal form via greedy delta-debugging against the packet tester
  (drop trailing parameters, then zero the survivors), yielding the clean
  PoC payloads the Table III rows cite.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from ..core.buglog import BugLog
from ..core.tester import PacketTester, Signature, VerifiedFinding

#: How often a finding must reproduce to count as stable.
DEFAULT_STABILITY_RUNS = 3


@dataclass(frozen=True)
class TriagedBug:
    """One deduplicated, stability-checked finding."""

    signature: Signature
    finding: VerifiedFinding
    occurrences: int
    stability: float  # fraction of replays that reproduced
    minimized_payload: Optional[bytes] = None

    @property
    def severity_rank(self) -> int:
        """Crude ranking: persistent impact outranks timed outages."""
        if self.finding.duration_s is None:
            return 0
        return 1


class PayloadMinimizer:
    """Greedy delta-debugging of bug payloads against a fresh SUT."""

    def __init__(self, device: str = "D1", seed: int = 0):
        self._tester = PacketTester(device=device, seed=seed)
        self.attempts = 0

    def _reproduces(self, payload: bytes, signature: Signature) -> bool:
        self.attempts += 1
        finding = self._tester.verify_payload(payload)
        return finding is not None and finding.signature == signature

    def minimize(self, payload: bytes) -> bytes:
        """Return the smallest payload with the same verified signature."""
        baseline = self._tester.verify_payload(payload)
        if baseline is None:
            return payload
        signature = baseline.signature
        current = payload
        # Pass 1: strip trailing parameter bytes while the bug survives.
        while len(current) > 2:
            candidate = current[:-1]
            if self._reproduces(candidate, signature):
                current = candidate
            else:
                break
        # Pass 2: zero every surviving parameter byte that tolerates it.
        for index in range(2, len(current)):
            if current[index] == 0x00:
                continue
            candidate = current[:index] + b"\x00" + current[index + 1 :]
            if self._reproduces(candidate, signature):
                current = candidate
        return current


class CrashTriage:
    """Turns a raw bug log into a ranked, deduplicated finding list."""

    def __init__(
        self,
        device: str = "D1",
        seed: int = 0,
        stability_runs: int = DEFAULT_STABILITY_RUNS,
        minimize: bool = True,
    ):
        self._device = device
        self._seed = seed
        self._stability_runs = stability_runs
        self._minimize = minimize
        self._tester = PacketTester(device=device, seed=seed)

    def triage(self, bug_log: BugLog) -> List[TriagedBug]:
        """Verify, deduplicate, stability-check and minimise a bug log."""
        occurrences: Dict[Signature, int] = {}
        representative: Dict[Signature, VerifiedFinding] = {}
        for cmdcl, cmd, observed in bug_log.coarse_groups():
            record = bug_log.first_record(cmdcl, cmd, observed)
            if record is None:
                continue
            finding = self._tester.verify_payload(record.payload)
            if finding is None:
                continue
            signature = finding.signature
            representative.setdefault(signature, finding)
            group_size = sum(
                1
                for r in bug_log
                if (r.cmdcl, r.cmd, r.observed) == (cmdcl, cmd, observed)
            )
            occurrences[signature] = occurrences.get(signature, 0) + group_size

        minimizer = PayloadMinimizer(self._device, self._seed) if self._minimize else None
        triaged: List[TriagedBug] = []
        for signature, finding in representative.items():
            stability = self._stability(finding.payload, signature)
            minimized = (
                minimizer.minimize(finding.payload) if minimizer is not None else None
            )
            triaged.append(
                TriagedBug(
                    signature=signature,
                    finding=finding,
                    occurrences=occurrences[signature],
                    stability=stability,
                    minimized_payload=minimized,
                )
            )
        triaged.sort(key=lambda t: (t.severity_rank, -t.occurrences))
        return triaged

    def _stability(self, payload: bytes, signature: Signature) -> float:
        hits = 0
        for _ in range(self._stability_runs):
            finding = self._tester.verify_payload(payload)
            if finding is not None and finding.signature == signature:
                hits += 1
        return hits / self._stability_runs


def render_triage_report(bugs: List[TriagedBug]) -> str:
    """A human-readable PoC summary for the triaged findings."""
    lines = ["Triage report", "=" * 70]
    for bug in bugs:
        matched = bug.finding.match_table3()
        label = (
            f"bug #{matched.bug_id:02d} ({matched.cve})"
            if matched and matched.cve
            else f"bug #{matched.bug_id:02d}" if matched else "unmatched"
        )
        minimized = (
            bug.minimized_payload.hex() if bug.minimized_payload else "-"
        )
        lines.append(
            f"{label:28s} CMDCL 0x{bug.finding.cmdcl:02X}  "
            f"impact {bug.finding.duration_label:8s}  "
            f"seen x{bug.occurrences:<4d} stable {bug.stability:.0%}  "
            f"PoC {minimized}"
        )
    return "\n".join(lines)
