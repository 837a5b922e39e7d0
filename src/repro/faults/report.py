"""The chaos report: canonical document of one resilience audit.

``zcover chaos`` (a ``chaos`` job) and the golden regression test share
this builder so they can never disagree.  The document is canonical JSON
(:func:`repro.obs.export.canonical_dumps`): the same plan and seed produce
the same bytes on every run, serial or sharded — the property the
acceptance gate (`zcover chaos ... --seed 0` twice, and with
``--workers 2``) holds.
"""

from __future__ import annotations

from .plan import FaultPlan

#: Document type marker, mirroring the obs/lint schema envelopes.
SCHEMA = "zcover-chaos-report"
SCHEMA_VERSION = 1


def build_chaos_document(summary, plan: FaultPlan, seed: int) -> dict:
    """The resilience-audit document for one fault-plan trial series.

    *summary* is a :class:`~repro.core.trials.TrialSummary`.  Worker
    count is deliberately absent from the document: a sharded audit must
    render the same bytes as a serial one.
    """
    trials = []
    for result in summary.trials:
        entry = result.to_dict()
        entry["degraded"] = result.degradation is not None
        trials.append(entry)
    return {
        "schema": SCHEMA,
        "schema_version": SCHEMA_VERSION,
        "meta": {
            "device": summary.device,
            "mode": summary.mode.name,
            "duration_s": summary.duration,
            "seed": seed,
            "trials": summary.n_trials,
        },
        "plan": plan.to_wire(),
        "trials": trials,
        "failures": summary.failure_rows(),
        "metrics": summary.metrics_document(),
    }


def render_chaos_text(doc: dict) -> str:
    """Human-readable summary of a chaos document."""
    meta = doc["meta"]
    counters = doc["metrics"]["counters"]
    injected = {
        key[len("faults.injected."):]: value
        for key, value in counters.items()
        if key.startswith("faults.injected.")
    }
    lines = [
        f"chaos audit: {meta['trials']} trial(s) of {meta['mode']} on "
        f"{meta['device']}, {meta['duration_s'] / 3600:.2f}h each, "
        f"seed {meta['seed']}, plan '{doc['plan']['name']}'",
        f"faults injected      : {sum(injected.values())}",
    ]
    for key in sorted(injected):
        lines.append(f"  {key:22s}: {injected[key]}")
    degraded = sum(1 for trial in doc["trials"] if trial["degraded"])
    lines.append(f"trials completed     : {len(doc['trials'])}")
    lines.append(f"  degraded (partial) : {degraded}")
    lines.append(f"unit failures        : {len(doc['failures'])}")
    for failure in doc["failures"]:
        lines.append(
            f"  {failure['label']} [{failure['category']}] "
            f"after {failure['attempts']} attempt(s)"
        )
    for index, trial in enumerate(doc["trials"]):
        tag = ""
        if trial["degraded"]:
            deg = trial["degradation"]
            tag = (
                f"  [degraded: {deg['reason']} in {deg['stage']} "
                f"at t={deg['at_s']:.1f}s]"
            )
        lines.append(
            f"trial {index}: packets={trial['packets_sent']} "
            f"unique={trial['unique_vulnerabilities']}{tag}"
        )
    return "\n".join(lines)
