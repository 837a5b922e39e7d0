"""Worker-layer faults: structured crash/raise injection.

The parallel executor used to honour an ad-hoc fault *string* parsed
inline in :mod:`repro.core.parallel`; the behaviour now lives here as a
structured :class:`WorkerFault` with a stable token form.  The token is
what rides the picklable :class:`~repro.core.parallel.CampaignUnit`
(plain strings keep the unit frozen, hashable and wire-clean); both the
serial and the pooled execution paths apply it through
:func:`apply_worker_fault`, so a plan's worker faults perturb a
``--workers 1`` run exactly like a sharded one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from ..errors import ReproError


class WorkerFaultError(ReproError):
    """A worker fault token could not be parsed."""


@dataclass(frozen=True)
class WorkerFault:
    """One worker-process fault.

    Kinds: ``raise`` (an exception inside the worker), ``exit`` (the
    process dies, breaking its pool), and the transient ``raise-once`` /
    ``exit-once`` variants gated on a *marker* file so the retry
    succeeds.
    """

    kind: str
    marker: str = ""

    def to_token(self) -> str:
        """The compact string form carried by a campaign unit."""
        if self.kind in ("raise-once", "exit-once"):
            return f"{self.kind}:{self.marker}"
        return self.kind

    @classmethod
    def from_token(cls, token: str) -> "WorkerFault":
        if token in ("raise", "exit"):
            return cls(kind=token)
        if token.startswith("raise-once:") or token.startswith("exit-once:"):
            kind, marker = token.split(":", 1)
            return cls(kind=kind, marker=marker)
        raise WorkerFaultError(f"unknown fault token {token!r}")

    @classmethod
    def from_spec_kind(cls, kind: str) -> "WorkerFault":
        """Map a plan-level worker fault kind onto an executable fault."""
        if kind == "crash":
            return cls(kind="exit")
        if kind == "raise":
            return cls(kind="raise")
        raise WorkerFaultError(f"unknown worker fault kind {kind!r}")

    def apply(self) -> None:
        """Execute the fault inside the worker process."""
        if self.kind == "raise":
            raise RuntimeError("injected fault: raise")
        if self.kind == "exit":
            os._exit(17)
        if self.kind in ("raise-once", "exit-once"):
            # The marker file is cross-process state: the first attempt
            # creates it and fails, the retry sees it and proceeds.
            if not os.path.exists(self.marker):
                with open(self.marker, "w", encoding="utf-8") as handle:
                    handle.write("fault fired\n")
                if self.kind == "raise-once":
                    raise RuntimeError("injected fault: raise-once")
                os._exit(17)
            return
        raise WorkerFaultError(f"unknown fault kind {self.kind!r}")


def apply_worker_fault(token: Optional[str]) -> None:
    """Honour a fault token inside the worker; no-op for ``None``."""
    if not token:
        return
    WorkerFault.from_token(token).apply()
