"""Finding records produced by statlint rules.

A :class:`Finding` is one rule violation anchored to a source location.
Findings sort by location so reports are stable regardless of rule
execution order, and they carry status flags rather than being dropped
when silenced: ``suppressed`` (an in-source ``# statlint:`` comment)
and ``baselined`` (grandfathered by the committed ratchet file).
Reporters can therefore show honest totals, and the engine can
distinguish "clean" from "clean because silenced".

Both flags are excluded from equality/ordering: identity is *what is
wrong where*, and status is applied deterministically afterwards (the
engine dedupes before either flag is set, so equal findings can never
disagree on status).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List


@dataclass(frozen=True, order=True)
class Finding:
    """One rule violation at one source location."""

    path: str
    line: int
    col: int
    rule: str
    message: str
    suppressed: bool = field(default=False, compare=False)
    baselined: bool = field(default=False, compare=False)

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path, "line": self.line, "col": self.col,
            "rule": self.rule, "message": self.message,
            "suppressed": self.suppressed,
            "baselined": self.baselined,
        }

    def suppress(self) -> "Finding":
        return replace(self, suppressed=True)

    def grandfather(self) -> "Finding":
        return replace(self, baselined=True)


@dataclass
class LintResult:
    """Outcome of one lint run over a set of files."""

    findings: List[Finding]
    n_files: int

    @property
    def active(self) -> List[Finding]:
        """Findings not silenced by a suppression comment."""
        return [f for f in self.findings if not f.suppressed]

    @property
    def suppressed(self) -> List[Finding]:
        return [f for f in self.findings if f.suppressed]

    @property
    def new(self) -> List[Finding]:
        """Active findings not grandfathered by the baseline."""
        return [f for f in self.findings
                if not f.suppressed and not f.baselined]

    @property
    def grandfathered(self) -> List[Finding]:
        """Active findings covered by the baseline ratchet."""
        return [f for f in self.findings
                if not f.suppressed and f.baselined]

    @property
    def ok(self) -> bool:
        return not self.active
