"""Deterministic fault injection (`repro.faults`).

Failure as a first-class, reproducible input: declarative
:class:`FaultPlan` documents compile — per seed, as a
:class:`FaultSchedule` — into deterministic schedules injected through
small hook points at the radio medium, the virtual controller, the
process-pool worker and the campaign itself.  Same plan + same seed ⇒
the same faults, the same partial results and byte-identical reports,
serial or sharded.  See ``docs/architecture.md`` §Fault injection.
"""

from .injector import (
    AbortHook,
    AbortSignal,
    ControllerFaultInjector,
    MediumAction,
    MediumFaultInjector,
)
from .plan import (
    DegradationRecord,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    canonical_mixed_plan,
    dumps_plan,
    flaky_controller_plan,
    load_plan,
    loads_plan,
    lossy_link_plan,
    save_plan,
    stock_plan,
)
from .report import build_chaos_document, render_chaos_text
from .schedule import ControllerEvent, FaultSchedule, derive_seed
from .worker import WorkerFault, WorkerFaultError, apply_worker_fault

__all__ = [
    "AbortHook",
    "AbortSignal",
    "ControllerEvent",
    "ControllerFaultInjector",
    "DegradationRecord",
    "FaultPlan",
    "FaultPlanError",
    "FaultSchedule",
    "FaultSpec",
    "MediumAction",
    "MediumFaultInjector",
    "WorkerFault",
    "WorkerFaultError",
    "apply_worker_fault",
    "build_chaos_document",
    "canonical_mixed_plan",
    "derive_seed",
    "dumps_plan",
    "flaky_controller_plan",
    "load_plan",
    "loads_plan",
    "lossy_link_plan",
    "render_chaos_text",
    "save_plan",
    "stock_plan",
]
