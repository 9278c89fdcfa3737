"""Rule base classes and the global rule registry.

Rules come in two granularities:

* :class:`FileRule` — sees one parsed module at a time (the
  determinism and robustness family);
* :class:`ProjectRule` — sees every collected module at once and can
  cross-check them (snapshot coverage, experiment registry).

Registration is declarative: subclass one of the bases and decorate
with :func:`register`. The engine instantiates each enabled rule once
per run, so rules must be stateless across files.
"""

from __future__ import annotations

from typing import Dict, Iterator, Type

from .findings import Finding


class Rule:
    """Common interface: an id, a one-line title, and a rationale."""

    id: str = ""
    title: str = ""
    rationale: str = ""

    def finding(self, path: str, line: int, col: int,
                message: str) -> Finding:
        return Finding(path=path, line=line, col=col, rule=self.id,
                       message=message)


class FileRule(Rule):
    """A rule evaluated independently on each source file."""

    def check_file(self, source, config) -> Iterator[Finding]:
        raise NotImplementedError


class ProjectRule(Rule):
    """A rule evaluated once over the whole collected file set."""

    def check_project(self, project, config) -> Iterator[Finding]:
        raise NotImplementedError


RULES: Dict[str, Type[Rule]] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    if not cls.id:
        raise ValueError(f"rule {cls.__name__} has no id")
    if cls.id in RULES:
        raise ValueError(f"duplicate rule id {cls.id}")
    RULES[cls.id] = cls
    return cls


def all_rule_ids() -> list:
    return sorted(RULES)
