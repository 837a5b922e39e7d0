"""Controller property model accumulated across ZCover's phases.

Phase 1 (fingerprinting) fills in the home ID, node IDs and *listed*
command classes; phase 2 (discovery) adds spec-inferred unlisted candidates
and validation-confirmed proprietary classes.  The mutator consumes the
combined, prioritised view.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Optional, Tuple


@dataclass
class ControllerProperties:
    """Everything ZCover knows about one target controller."""

    home_id: Optional[int] = None
    controller_node_id: Optional[int] = None
    observed_node_ids: FrozenSet[int] = frozenset()
    listed_cmdcls: Tuple[int, ...] = ()
    unlisted_candidates: Tuple[int, ...] = ()
    validated_unknown: Tuple[int, ...] = ()
    proprietary: Tuple[int, ...] = ()

    @property
    def known_count(self) -> int:
        """Table IV's "Known CMDCLs" column."""
        return len(self.listed_cmdcls)

    @property
    def unknown_cmdcls(self) -> Tuple[int, ...]:
        """Table IV's "Unknown CMDCLs": validated unlisted + proprietary."""
        merged = set(self.validated_unknown) | set(self.proprietary)
        merged -= set(self.listed_cmdcls)
        return tuple(sorted(merged))

    @property
    def unknown_count(self) -> int:
        return len(self.unknown_cmdcls)

    @property
    def all_cmdcls(self) -> Tuple[int, ...]:
        """Known plus unknown — the fuzzing candidate set (45 on the testbed)."""
        return tuple(sorted(set(self.listed_cmdcls) | set(self.unknown_cmdcls)))
