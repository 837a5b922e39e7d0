"""ZCover core: the paper's primary contribution.

Phase 1 — known properties fingerprinting (:mod:`.fingerprint`),
phase 2 — unknown properties discovery (:mod:`.discovery`),
phase 3 — position-sensitive mutation and fuzzing (:mod:`.mutation`,
:mod:`.fuzzer`), plus the packet tester (:mod:`.tester`), campaign
orchestration (:mod:`.campaign`) and the VFuzz baseline (:mod:`.baseline`).
"""

from .baseline import VFuzzBaseline, VFuzzResult
from .buglog import BugLog, BugRecord
from .campaign import (
    CampaignResult,
    DAY,
    HOUR,
    Mode,
    build_queue,
    run_ablation,
    run_campaign,
    verify_findings,
)
from .discovery import (
    ClusterResult,
    SpecClusterer,
    ValidationResult,
    ValidationTester,
    discover_unknown_properties,
)
from .fingerprint import (
    ActiveScanner,
    ActiveScanResult,
    PassiveScanner,
    PassiveScanResult,
    SCANNER_NODE_ID,
    fingerprint,
)
from .fuzzer import (
    DetectionMark,
    FuzzerConfig,
    FuzzingEngine,
    FuzzResult,
    TimelinePoint,
    psm_streams,
    random_stream,
)
from .monitor import (
    LivenessMonitor,
    Observation,
    ObservedKind,
    SutObserver,
    classify_memory_changes,
)
from .mutation import (
    FIELD_OPERATORS,
    INTERESTING_VALUES,
    INVALID_CMD_SWEEP,
    MutationOperator,
    PositionSensitiveMutator,
    RandomMutator,
    TestCase,
)
from .properties import ControllerProperties
from .tester import PacketTester, Signature, VerifiedFinding, VerifiedUnique
from .trials import BugTimingStats, TrialSummary, run_trials

__all__ = [
    "ActiveScanner",
    "ActiveScanResult",
    "BugLog",
    "BugTimingStats",
    "run_trials",
    "TrialSummary",
    "BugRecord",
    "build_queue",
    "CampaignResult",
    "classify_memory_changes",
    "ClusterResult",
    "ControllerProperties",
    "DAY",
    "DetectionMark",
    "discover_unknown_properties",
    "FIELD_OPERATORS",
    "fingerprint",
    "FuzzerConfig",
    "FuzzingEngine",
    "FuzzResult",
    "HOUR",
    "INTERESTING_VALUES",
    "INVALID_CMD_SWEEP",
    "LivenessMonitor",
    "Mode",
    "MutationOperator",
    "Observation",
    "ObservedKind",
    "PacketTester",
    "PassiveScanner",
    "PassiveScanResult",
    "PositionSensitiveMutator",
    "psm_streams",
    "RandomMutator",
    "random_stream",
    "run_ablation",
    "run_campaign",
    "SCANNER_NODE_ID",
    "Signature",
    "SpecClusterer",
    "SutObserver",
    "TestCase",
    "TimelinePoint",
    "ValidationResult",
    "ValidationTester",
    "VerifiedFinding",
    "VerifiedUnique",
    "verify_findings",
    "VFuzzBaseline",
    "VFuzzResult",
]
