"""Lint configuration: defaults plus the ``[tool.statlint]`` table.

Every knob has a working default so ``python -m repro.statlint`` runs
without any configuration; the pyproject table overrides individual
fields (kebab-case or snake_case keys, interchangeably). Path-shaped
options are glob patterns matched against ``/``-normalized paths
relative to the lint root — a pattern without a leading ``*`` also
matches at any directory depth, so ``repro/core/walltime.py`` matches
``src/repro/core/walltime.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from fnmatch import fnmatch
from pathlib import Path
from typing import Optional, Sequence, Tuple

try:  # Python 3.11+
    import tomllib as _toml
except ImportError:  # pragma: no cover - older interpreters
    _toml = None


def path_matches(relpath: str, patterns: Sequence[str]) -> bool:
    """Whether a ``/``-normalized relative path matches any pattern."""
    normalized = relpath.replace("\\", "/")
    for pattern in patterns:
        if (fnmatch(normalized, pattern) or
                fnmatch(normalized, f"*/{pattern}") or
                fnmatch(normalized, f"{pattern}/*") or
                fnmatch(normalized, f"*/{pattern}/*")):
            return True
    return False


@dataclass(frozen=True)
class LintConfig:
    """Effective statlint configuration (see module docstring).

    Attributes:
        enable: rule ids to run; empty means every registered rule.
        exclude: path patterns never linted.
        wallclock_allow: files allowed to read the host clock (DET001);
            everything else must route timing through this shim.
        det003_paths: files whose iteration order feeds rendered or
            serialized output (DET003 applies only there).
        err002_paths: fault-handling code (ERR002 applies only
            there): writes must be atomic, failures routed.
        telemetry_paths: the telemetry subsystem (TEL001): no host
            clock, no unseeded randomness, canonical JSON encoding,
            no unordered iteration anywhere in these files.
        snapshot_exempt: ``Campaign`` attributes deliberately absent
            from ``snapshot_campaign`` (immutable identity or lifetime
            counters); SNAP001 flags drift in either direction.
        snapshot_methods: methods whose ``self.<attr>`` assignments
            define the campaign's mutable state for SNAP001.
        campaign_path / checkpoint_path / runner_path:
            project-relative locations of the cross-checked modules
            (SNAP001, EXP001).
        num_hot_paths: kernel files NUM101 polices (everywhere else,
            float math is presumed deliberate).
    """

    enable: Tuple[str, ...] = ()
    exclude: Tuple[str, ...] = ()
    wallclock_allow: Tuple[str, ...] = ("repro/core/walltime.py",)
    det003_paths: Tuple[str, ...] = (
        "*/analysis/*", "*/experiments/*", "*serialize*", "*report*")
    err002_paths: Tuple[str, ...] = ("*/faults/*",)
    telemetry_paths: Tuple[str, ...] = ("repro/telemetry/*",)
    snapshot_exempt: Tuple[str, ...] = ()
    snapshot_methods: Tuple[str, ...] = (
        "__init__", "start", "_dry_run_and_calibrate")
    campaign_path: str = "repro/fuzzer/campaign.py"
    checkpoint_path: str = "repro/fuzzer/checkpoint.py"
    runner_path: str = "repro/experiments/runner.py"
    num_hot_paths: Tuple[str, ...] = ("repro/core/*", "repro/fuzzer/*")

    def rule_enabled(self, rule_id: str) -> bool:
        return not self.enable or rule_id in self.enable

    def is_excluded(self, relpath: str) -> bool:
        return path_matches(relpath, self.exclude)


def _coerce(value, target_type):
    if target_type is Tuple[str, ...]:
        if isinstance(value, str):
            return (value,)
        return tuple(str(v) for v in value)
    return str(value)


def config_from_table(table: dict) -> LintConfig:
    """Build a config from a ``[tool.statlint]``-shaped mapping."""
    config = LintConfig()
    known = {f.name: f.type for f in fields(LintConfig)}
    overrides = {}
    for key, value in table.items():
        name = key.replace("-", "_")
        if name not in known:
            raise ValueError(f"unknown [tool.statlint] key {key!r}")
        # Every scalar field is a ``*_path`` anchor; the rest are
        # pattern/name tuples.
        field_type = str if name.endswith("_path") else Tuple[str, ...]
        overrides[name] = _coerce(value, field_type)
    return replace(config, **overrides)


def load_config(pyproject: Optional[Path]) -> LintConfig:
    """Load config from a pyproject.toml (defaults if absent/unreadable).

    A missing file or an interpreter without ``tomllib`` degrades to
    the built-in defaults rather than failing the lint run.
    """
    if pyproject is None or _toml is None:
        return LintConfig()
    pyproject = Path(pyproject)
    if not pyproject.is_file():
        return LintConfig()
    with pyproject.open("rb") as handle:
        data = _toml.load(handle)
    table = data.get("tool", {}).get("statlint", {})
    return config_from_table(table)


def find_pyproject(start: Path) -> Optional[Path]:
    """Nearest pyproject.toml at or above ``start``."""
    for directory in [start, *start.parents]:
        candidate = directory / "pyproject.toml"
        if candidate.is_file():
            return candidate
    return None
