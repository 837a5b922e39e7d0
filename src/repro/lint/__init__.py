"""Custom static analysis over the reproduction's own source tree.

Four analyzer families guard the invariants the test suite cannot see
(see ``docs/architecture.md`` §Static analysis):

* :mod:`repro.lint.determinism` — no unseeded entropy or wall-clock reads
  inside ``src/repro``, since seed-stable trial sharding depends on every
  random draw flowing through the plumbed ``random.Random`` instances;
* :mod:`repro.lint.conformance` — the dispatch tables of the simulator and
  the mutation engine agree with :class:`repro.zwave.registry.SpecRegistry`
  (a static mirror of the paper's Phase-2 drift discovery);
* :mod:`repro.lint.wiresafety` — every class declared with
  :func:`repro.wire.layout`, and every dataclass it reaches, carries only
  JSON-clean field types, so new fields cannot silently break the codec;
* :mod:`repro.lint.flow` — the interprocedural dataflow engine: call
  graph over the whole tree, entropy/clock taint to a fixpoint, wire
  type inference, and the committed purity manifest whose drift CI gates.

Run it as ``zcover lint`` (``--format json``/``--format sarif`` for
machine output).
"""

from .conformance import ConformanceAnalyzer
from .determinism import DeterminismAnalyzer
from .findings import SCHEMA_VERSION, LintFinding, Severity
from .flow import FlowAnalyzer
from .runner import LintReport, default_analyzers, run_lint
from .sarif import findings_to_sarif, render_sarif
from .wiresafety import WireSafetyAnalyzer

__all__ = [
    "ConformanceAnalyzer",
    "DeterminismAnalyzer",
    "FlowAnalyzer",
    "LintFinding",
    "LintReport",
    "SCHEMA_VERSION",
    "Severity",
    "WireSafetyAnalyzer",
    "default_analyzers",
    "findings_to_sarif",
    "render_sarif",
    "run_lint",
]
