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
  --direct``, every CLI command that runs units and the black-box test
  harness) runs the same units through the in-process executor and folds
  them through the same function.

One fold, one per-kind document builder, so the envelope cannot drift;
byte-equality then reduces to the serial/parallel determinism the
executor already guarantees (``tests/test_parallel_determinism.py``).
The document embeds wire-v6 payloads (:mod:`repro.core.resultio`), so a
client from a different build fails loudly on the version check instead
of misparsing.
"""

from __future__ import annotations

from typing import Any, List, Optional, Sequence

from ..core.baseline import compare_units, merge_compare
from ..core.campaign import HOUR, Mode, ablation_units, arm_name, merge_ablation
# rehydrate_unit_result is re-exported: service and checkpoint callers import it here.
from ..core.parallel import CampaignUnit, execute_units, rehydrate_unit_result  # noqa: F401
from ..core.resultio import campaign_to_wire, jobspec_to_wire, session_to_wire, vfuzz_to_wire
from ..core.session import merge_session_outcomes, session_plan_with_trials, session_units
from ..core.trials import merge_trials, trial_units
from ..faults.plan import FaultPlan
from ..obs.export import canonical_dumps, snapshot_to_document
from ..obs.metrics import merge_all
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


def spec_units(spec: JobSpec, fault_plan: Optional[FaultPlan] = None) -> List[CampaignUnit]:
    """The campaign units of one job, in canonical (merge) order.

    Exactly the units the in-process entry points would build: trial
    series come from :func:`~repro.core.trials.trial_units` (ablation and
    compare from their ``*_units`` siblings), session campaigns shard one
    unit per flow with the stock plan (trial budget overridden by
    ``spec.trials``) — the byte-identity contract starts here, with
    identical shards.  *fault_plan* replaces the spec's stock plan: the
    CLI's way in for a plan file, which a spec never names.
    """
    if spec.kind == "sessions":
        return session_units(
            spec.device, spec.flows, spec.seed, session_plan_with_trials(spec.trials)
        )
    plan = spec_fault_plan(spec) if fault_plan is None else fault_plan
    if spec.kind == "ablation":
        return ablation_units(spec.device, spec_duration(spec), spec.seed, plan, spec.scheduler)
    if spec.kind == "compare":
        return compare_units(spec.devices, spec_duration(spec), spec.seed, plan, spec.scheduler)
    return trial_units(
        device=spec.device,
        mode=spec_mode(spec),
        n_trials=spec.resolved_trials(),
        duration=spec_duration(spec),
        base_seed=spec.seed,
        fault_plan=plan,
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
    return _envelope(
        spec,
        {
            "trials": [campaign_to_wire(result) for result in summary.trials],
            "failures": summary.failure_rows(),
            "metrics": summary.metrics_document(),
            "render": summary.render(),
        },
    )


def _table_document(spec: JobSpec, payload: dict, snapshots, meta: dict, render: str) -> dict:
    """Document of an experiment job: its wire results (*payload*), the
    merged metrics of *snapshots* and the rendered table."""
    merged = merge_all(snapshot for snapshot in snapshots if snapshot is not None)
    payload.update(metrics=snapshot_to_document(merged, meta=meta), render=render)
    return _envelope(spec, payload)


def _ablation_document(spec: JobSpec, results: dict) -> dict:
    """Document for ``kind="ablation"``: a wire result per arm, Table VI."""
    from ..analysis.report import render_table6

    arms = sorted(results, key=arm_name)
    meta = {"kind": "ablation", "device": spec.device, "duration_s": spec_duration(spec)}
    meta["modes"] = len(results)
    return _table_document(
        spec,
        {"arms": {arm_name(key): campaign_to_wire(results[key]) for key in arms}},
        [results[key].metrics for key in arms],
        meta,
        render_table6(results),
    )


def _compare_document(spec: JobSpec, vfuzz: dict, zcover: dict) -> dict:
    """Document for ``kind="compare"``: the VFuzz and ZCover wire results
    per device, Table V."""
    from ..analysis.report import render_table5

    devices = sorted(zcover)
    results = {
        device: {"vfuzz": vfuzz_to_wire(vfuzz[device]), "zcover": campaign_to_wire(zcover[device])}
        for device in devices
    }
    return _table_document(
        spec,
        {"results": results},
        [result.metrics for device in devices for result in (vfuzz[device], zcover[device])],
        {"kind": "compare", "devices": ",".join(devices), "duration_s": spec_duration(spec)},
        render_table5(vfuzz, zcover),
    )


def _session_document(spec: JobSpec, result) -> dict:
    """Document for ``kind="sessions"`` (from a merged SessionResult)."""
    meta = {"kind": "sessions", "device": result.device, "seed": result.seed}
    meta["flows"] = ",".join(result.flows)
    metrics = snapshot_to_document(result.metrics, meta=meta)
    return _envelope(spec, {"session": session_to_wire(result), "metrics": metrics})


def document_from_outcomes(
    spec: JobSpec, outcomes: Sequence[Any], fault_plan: Optional[FaultPlan] = None
) -> dict:
    """Fold executor outcomes (canonical order) into the result document.

    This is the service path; *outcomes* may mix live pool settles and
    checkpoint-restored units.  A failed shard fails a session, ablation
    or compare job as a whole; trial series list it instead.  A chaos
    report names *fault_plan*, the plan :func:`spec_units` was given.
    """
    if spec.kind == "sessions":
        return _session_document(spec, merge_session_outcomes(outcomes))
    if spec.kind == "ablation":
        return _ablation_document(spec, merge_ablation(outcomes))
    if spec.kind == "compare":
        return _compare_document(spec, *merge_compare(outcomes))
    summary = merge_trials(
        spec.device, spec_mode(spec), spec_duration(spec), list(outcomes)
    )
    if spec.kind == "chaos":  # wraps the canonical chaos report
        from ..faults.report import build_chaos_document

        plan = spec_fault_plan(spec) if fault_plan is None else fault_plan
        return _envelope(spec, {"chaos": build_chaos_document(summary, plan, spec.seed)})
    return _trials_document(spec, summary)


def direct_document(
    spec: JobSpec, workers: int = 1, fault_plan: Optional[FaultPlan] = None
) -> dict:
    """Run *spec*'s units in-process and fold them into its document.

    With the default ``workers=1`` this is the serial oracle whose bytes
    the service must reproduce (``zcover submit --direct``).  The CLI
    commands that run units call it with their ``--workers`` count —
    sharding never changes a byte — and print parts of the document.
    """
    outcomes = execute_units(spec_units(spec, fault_plan), workers=workers)
    return document_from_outcomes(spec, outcomes, fault_plan)


def dumps_result_document(doc: dict) -> str:
    """Canonical serialisation of a result document (the body bytes).

    Delegates to :func:`repro.obs.export.canonical_dumps` so every schema
    document in the tree shares one byte-level convention.
    """
    return canonical_dumps(doc)
