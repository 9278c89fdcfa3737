"""The lint engine: file collection, rule dispatch, suppression.

One :func:`lint_paths` call collects every ``.py`` file under the
given paths, parses each once, runs all enabled file rules per module
and all enabled project rules over the whole set, then applies
suppression comments. A file that fails to parse yields a ``SYNTAX``
finding (unsuppressible — a broken file can't declare suppressions
reliably) instead of aborting the run.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, List, Optional, Tuple

from .config import LintConfig
from .findings import Finding, LintResult
from .imports import ImportMap
from .registry import RULES, FileRule, ProjectRule
from .suppressions import SuppressionIndex

#: Pseudo-rule id for unparsable files.
SYNTAX = "SYNTAX"


@dataclass
class SourceFile:
    """One parsed module under lint."""

    path: Path
    relpath: str
    source: str
    tree: ast.Module
    suppressions: SuppressionIndex
    imports: ImportMap


class Project:
    """The collected file set handed to project rules."""

    def __init__(self, files: List[SourceFile]) -> None:
        self.files = files

    def find(self, suffix: str) -> Optional[SourceFile]:
        """The file whose ``/``-normalized path ends with ``suffix``."""
        suffix = suffix.replace("\\", "/")
        for source in self.files:
            normalized = source.relpath.replace("\\", "/")
            if normalized == suffix or normalized.endswith("/" + suffix):
                return source
        return None


def _iter_python_files(paths: Iterable[Path]) -> Iterable[Path]:
    for path in paths:
        if path.is_file():
            if path.suffix == ".py":
                yield path
        elif path.is_dir():
            for found in sorted(path.rglob("*.py")):
                yield found


def collect_files(paths: Iterable[Path], config: LintConfig,
                  root: Path) -> Tuple[List[SourceFile], List[Finding]]:
    """Parse every lintable file; syntax errors become findings."""
    files: List[SourceFile] = []
    errors: List[Finding] = []
    seen = set()
    for path in _iter_python_files(Path(p) for p in paths):
        resolved = path.resolve()
        if resolved in seen:
            continue
        seen.add(resolved)
        relpath = os.path.relpath(resolved, root).replace(os.sep, "/")
        if config.is_excluded(relpath):
            continue
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            errors.append(Finding(
                path=relpath, line=exc.lineno or 0, col=exc.offset or 0,
                rule=SYNTAX, message=f"file does not parse: {exc.msg}"))
            continue
        files.append(SourceFile(
            path=resolved, relpath=relpath, source=source, tree=tree,
            suppressions=SuppressionIndex(source),
            imports=ImportMap(tree)))
    return files, errors


def _apply_suppressions(findings: Iterable[Finding],
                        project: Project) -> List[Finding]:
    by_path = {f.relpath: f for f in project.files}
    out = []
    for finding in findings:
        source = by_path.get(finding.path)
        if (source is not None and finding.rule != SYNTAX and
                source.suppressions.is_suppressed(finding.rule,
                                                  finding.line)):
            finding = finding.suppress()
        out.append(finding)
    return out


def lint_paths(paths: Iterable[Path], config: LintConfig = None,
               root: Path = None) -> LintResult:
    """Lint ``paths`` and return every (possibly suppressed) finding.

    Deduplication happens *before* suppression, so equal findings from
    overlapping rules can never disagree on their status flags (the
    old order made the surviving copy's ``suppressed`` flag depend on
    set iteration order).
    """
    config = config or LintConfig()
    root = Path(root) if root is not None else Path.cwd()
    files, errors = collect_files(paths, config, root)
    project = Project(files)

    found: List[Finding] = []
    for rule_id, cls in sorted(RULES.items()):
        if not config.rule_enabled(rule_id):
            continue
        rule = cls()
        if isinstance(rule, FileRule):
            for source in files:
                found.extend(rule.check_file(source, config))
        elif isinstance(rule, ProjectRule):
            found.extend(rule.check_project(project, config))

    findings = sorted(errors + _apply_suppressions(sorted(set(found)),
                                                   project))
    return LintResult(findings=findings, n_files=len(files))
