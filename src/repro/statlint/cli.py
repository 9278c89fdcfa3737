"""statlint command line: ``python -m repro.statlint <paths>``.

Exit codes:

* **0** — clean: no active findings, or (with ``--baseline``) none
  beyond the baseline;
* **1** — findings, no baseline in play;
* **2** — *new* findings versus the baseline (the ratchet tripped);
* **3** — usage or configuration error.

Configuration comes from the nearest ``pyproject.toml``'s
``[tool.statlint]`` table (or ``--config``); the lint root (against
which configured path patterns match) is that file's directory.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import List, Optional

from . import rules  # noqa: F401 — ensure the rule set is registered
from .baseline import Baseline, BaselineError
from .config import find_pyproject, load_config
from .engine import lint_paths
from .report import render_human, render_json, render_rules
from .sarif import render_sarif

EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_NEW_FINDINGS = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """Argparse, but usage errors use the reserved usage exit code."""

    def error(self, message: str) -> None:  # pragma: no cover - argparse
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _default_paths(root: Path) -> List[str]:
    candidates = [p for p in ("src", "benchmarks", "examples")
                  if (root / p).is_dir()]
    return candidates or ["."]


def main(argv: Optional[List[str]] = None) -> int:
    parser = _Parser(
        prog="repro.statlint",
        description="Repo-specific determinism & consistency linter.")
    parser.add_argument("paths", nargs="*", metavar="path",
                        help="files or directories to lint (default: "
                             "src benchmarks examples under the root)")
    parser.add_argument("--config", type=Path, default=None,
                        help="pyproject.toml to read [tool.statlint] "
                             "from (default: nearest above cwd)")
    parser.add_argument("--format", choices=["human", "json", "sarif"],
                        default="human", help="report format")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="baseline file: grandfather its findings; "
                             "exit 2 only on findings beyond it")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite --baseline from this run's "
                             "active findings and exit 0")
    parser.add_argument("--show-suppressed", action="store_true",
                        help="also print suppressed findings")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_rules())
        return EXIT_CLEAN
    if args.update_baseline and args.baseline is None:
        print("statlint: --update-baseline requires --baseline",
              file=sys.stderr)
        return EXIT_USAGE

    pyproject = args.config or find_pyproject(Path.cwd())
    try:
        config = load_config(pyproject)
    except ValueError as exc:
        print(f"statlint: bad configuration: {exc}", file=sys.stderr)
        return EXIT_USAGE
    root = pyproject.parent if pyproject is not None else Path.cwd()

    paths = args.paths or _default_paths(root)
    missing = [p for p in paths if not Path(p).exists()]
    if missing:
        print(f"statlint: no such path(s): {', '.join(missing)}",
              file=sys.stderr)
        return EXIT_USAGE

    try:
        baseline = (Baseline.load(args.baseline)
                    if args.baseline is not None else None)
    except BaselineError as exc:
        print(f"statlint: {exc}", file=sys.stderr)
        return EXIT_USAGE

    result = lint_paths([Path(p) for p in paths], config, root=root)

    if args.update_baseline:
        Baseline.from_findings(result.findings).save(args.baseline)
        print(f"statlint: baseline {args.baseline} updated with "
              f"{len(result.active)} finding(s)", file=sys.stderr)
        return EXIT_CLEAN

    baseline_used = baseline is not None
    if baseline_used:
        result.findings = baseline.apply(result.findings)

    if args.format == "json":
        print(render_json(result, baseline_used=baseline_used))
    elif args.format == "sarif":
        print(render_sarif(result, baseline_used=baseline_used))
    else:
        print(render_human(result,
                           show_suppressed=args.show_suppressed,
                           baseline_used=baseline_used))

    if baseline_used:
        return EXIT_NEW_FINDINGS if result.new else EXIT_CLEAN
    return EXIT_CLEAN if result.ok else EXIT_FINDINGS


if __name__ == "__main__":
    sys.exit(main())
