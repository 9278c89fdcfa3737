"""DESIGN.md §5's module map names every module under ``src/repro``
and nothing else, so a module cannot be added, moved or deleted
without the map following it."""

import re

from lint_helpers import REPO_ROOT

#: A map line: indentation, then a package (``name/``) or a file.
_ENTRY = re.compile(r"^( +)(\S+)")


def map_modules(design: str) -> set:
    """Repo-relative module paths (``fuzzer/mp.py``) the map names.

    A ``name/`` entry opens a package, nested by indentation (``serve/``
    under ``telemetry/``); deeper continuation lines add files to the
    package last opened; a file at the outermost indent is a top-level
    module, followed by its description.
    """
    block = design.split("## 5. Module map", 1)[1].split("```")[1]
    names, stack = set(), []
    for line in block.splitlines():
        match = _ENTRY.match(line)
        if not match:
            continue
        indent, head = len(match.group(1)), match.group(2)
        if head.endswith("/"):
            stack[indent // 2 - 1:] = [head.rstrip("/")]
            files = line.split()[1:]
        elif indent == 2:
            stack, files = [], [head]
        else:
            files = line.split()
        prefix = "/".join(stack)
        names.update(f"{prefix}/{f}" if prefix else f
                     for f in files if f.endswith(".py"))
    return names


def tree_modules() -> set:
    """Every module under ``src/repro``; package ``__init__`` and
    ``__main__`` files are implied by their package."""
    root = REPO_ROOT / "src" / "repro"
    return {path.relative_to(root).as_posix()
            for path in root.rglob("*.py")
            if not path.name.startswith("__")}


def test_map_names_every_module():
    named = map_modules((REPO_ROOT / "DESIGN.md").read_text())
    tree = tree_modules()
    assert sorted(tree - named) == [], "missing from DESIGN.md §5"
    assert sorted(named - tree) == [], "stale in DESIGN.md §5"


def test_dropped_module_is_caught():
    design = (REPO_ROOT / "DESIGN.md").read_text()
    dropped = design.replace("  checkpoint.py", "", 1)
    assert dropped != design
    assert tree_modules() - map_modules(dropped) == {"fuzzer/checkpoint.py"}
