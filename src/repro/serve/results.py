"""Canonical result documents: the service's byte-identity contract.

A job's result is a *document* — canonical JSON (sorted keys, indent 2,
trailing newline, via :func:`repro.obs.export.canonical_dumps`) — and
the contract is that the bytes the service hands a client equal the
bytes an in-process run of the same :class:`~repro.serve.protocol.JobSpec`
would produce.  Both sides of that equation live here:

* the service path builds units with :func:`spec_units`, executes them on
  its worker pool, and folds the outcomes through
  :func:`document_from_outcomes`;
* the oracle path (:func:`direct_document`, used by ``zcover submit
  --direct`` and the black-box test harness) runs the same units through
  the in-process executor and folds them through the same function.

One fold, one per-kind document builder, so the envelope cannot drift;
byte-equality then reduces to the serial/parallel determinism the
executor already guarantees (``tests/test_parallel_determinism.py``).
The document embeds wire-v6 payloads (:mod:`repro.core.resultio`), so a
client from a different build fails loudly on the version check instead
of misparsing.
"""

from __future__ import annotations

from typing import Any, List, Sequence

from ..core.campaign import HOUR, Mode
# rehydrate_unit_result is re-exported: service and checkpoint callers import it here.
from ..core.parallel import CampaignUnit, execute_units, rehydrate_unit_result  # noqa: F401
from ..core.resultio import jobspec_to_wire, merge_trials, session_to_wire
from ..core.session import merge_session_outcomes, session_plan_with_trials, session_units
from ..core.trials import trial_units
from ..obs.export import canonical_dumps, snapshot_to_document
from .protocol import JobSpec, job_id_for

#: Document type marker, mirroring the chaos/obs/lint schema envelopes.
RESULT_SCHEMA = "zcover-serve-result"
RESULT_SCHEMA_VERSION = 1


def spec_mode(spec: JobSpec) -> Mode:
    """The :class:`~repro.core.campaign.Mode` a (validated) spec names."""
    return Mode[spec.mode.upper()]


def spec_duration(spec: JobSpec) -> float:
    """Per-campaign simulated duration in seconds (specs carry hours)."""
    return spec.hours * HOUR


def spec_fault_plan(spec: JobSpec):
    """The stock :class:`~repro.faults.plan.FaultPlan`, or ``None``.

    Specs only ever name stock plans (never server-side file paths — see
    :data:`repro.serve.protocol.STOCK_FAULT_PLANS`), so resolution cannot
    touch the filesystem.
    """
    if spec.fault_plan is None:
        return None
    from ..faults.plan import stock_plan

    return stock_plan(spec.fault_plan)


def spec_units(spec: JobSpec) -> List[CampaignUnit]:
    """The campaign units of one job, in canonical (merge) order.

    Exactly the units the in-process entry points would build: trial
    series come from :func:`~repro.core.trials.trial_units`, session
    campaigns shard one unit per flow with the stock plan (trial budget
    overridden by ``spec.trials``) — the byte-identity contract starts
    here, with identical shards.
    """
    if spec.kind == "sessions":
        return session_units(
            spec.device, spec.flows, spec.seed, session_plan_with_trials(spec.trials)
        )
    return trial_units(
        device=spec.device,
        mode=spec_mode(spec),
        n_trials=spec.resolved_trials(),
        duration=spec_duration(spec),
        base_seed=spec.seed,
        fault_plan=spec_fault_plan(spec),
        scheduler=spec.scheduler,
    )


# -- the per-kind document builders (shared by service and oracle) -------------


def _envelope(spec: JobSpec, payload: dict) -> dict:
    """The common document envelope around a kind-specific payload."""
    doc = {
        "schema": RESULT_SCHEMA,
        "schema_version": RESULT_SCHEMA_VERSION,
        "job_id": job_id_for(spec),
        "spec": jobspec_to_wire(spec),
    }
    doc.update(payload)
    return doc


def _trials_document(spec: JobSpec, summary) -> dict:
    """Document for ``kind="trials"`` (from a TrialSummary, either path)."""
    from ..core.resultio import campaign_to_wire

    return _envelope(
        spec,
        {
            "trials": [campaign_to_wire(result) for result in summary.trials],
            "failures": [
                {
                    "label": failure.unit.label(),
                    "category": failure.category,
                    "attempts": failure.attempts,
                }
                for failure in summary.failures
            ],
            "metrics": summary.metrics_document(),
            "render": summary.render(),
        },
    )


def _chaos_document(spec: JobSpec, summary) -> dict:
    """Document for ``kind="chaos"``: wraps the canonical chaos report."""
    from ..faults.report import build_chaos_document

    return _envelope(
        spec,
        {"chaos": build_chaos_document(summary, spec_fault_plan(spec), spec.seed)},
    )


def session_metrics_document(result) -> dict:
    """The metrics document of a merged SessionResult (``zcover sessions
    --metrics-out`` writes the same one)."""
    return snapshot_to_document(
        result.metrics,
        meta={
            "kind": "sessions",
            "device": result.device,
            "seed": result.seed,
            "flows": ",".join(result.flows),
        },
    )


def _session_document(spec: JobSpec, result) -> dict:
    """Document for ``kind="sessions"`` (from a merged SessionResult)."""
    return _envelope(
        spec, {"session": session_to_wire(result), "metrics": session_metrics_document(result)}
    )


def document_from_outcomes(spec: JobSpec, outcomes: Sequence[Any]) -> dict:
    """Fold executor outcomes (canonical order) into the result document.

    This is the service path; *outcomes* may mix live pool settles and
    checkpoint-restored units.  Session jobs merge exactly as
    :func:`~repro.core.session.run_sessions` does: any failed flow shard
    fails the whole job.
    """
    if spec.kind == "sessions":
        return _session_document(spec, merge_session_outcomes(outcomes))
    summary = merge_trials(
        spec.device, spec_mode(spec), spec_duration(spec), list(outcomes)
    )
    if spec.kind == "chaos":
        return _chaos_document(spec, summary)
    return _trials_document(spec, summary)


def direct_document(spec: JobSpec) -> dict:
    """The oracle: run *spec*'s units in-process (serially) and fold them.

    ``zcover submit --direct`` and the black-box harness call this; its
    bytes are what the service must reproduce.
    """
    return document_from_outcomes(spec, execute_units(spec_units(spec), workers=1))


def dumps_result_document(doc: dict) -> str:
    """Canonical serialisation of a result document (the body bytes).

    Delegates to :func:`repro.obs.export.canonical_dumps` so every schema
    document in the tree shares one byte-level convention.
    """
    return canonical_dumps(doc)
