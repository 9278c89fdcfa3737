"""Acceptance: the linter over the *real* repository tree.

The shipped tree must lint clean, and seeding a violation — removing
one field from the real ``snapshot_campaign``, or reverting the real
``aggregate_keys`` to its float64 ``np.bincount`` — must turn the run
red.
These tests drive the CLI entry point end to end (config discovery,
exit codes, reporting) rather than calling the engine directly.
"""

import json
import shutil

import pytest

from repro.statlint import load_config
from repro.statlint.cli import main

from lint_helpers import REPO_ROOT

SRC = REPO_ROOT / "src"

#: The rule catalog: every registered rule, each enabled in the repo.
KEPT_RULES = {"DET001", "DET002", "DET003", "TEL001", "ERR001", "ERR002",
              "NUM001", "NUM101", "SNAP001", "EXP001"}


@pytest.fixture(scope="module")
def repo_config():
    return load_config(REPO_ROOT / "pyproject.toml")


def test_shipped_tree_is_clean(capsys):
    paths = [str(REPO_ROOT / p) for p in ("src", "benchmarks", "examples")
             if (REPO_ROOT / p).is_dir()]
    code = main(["--config", str(REPO_ROOT / "pyproject.toml"), *paths])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_shipped_tree_json_report(capsys):
    code = main(["--config", str(REPO_ROOT / "pyproject.toml"),
                 "--format", "json", str(SRC / "repro" / "fuzzer")])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    assert report["ok"] is True
    assert report["n_active"] == 0
    assert report["n_files"] > 5


@pytest.fixture
def mutated_tree(tmp_path):
    """A copy of the lint-relevant sources with one snapshot field
    (``execs``) deliberately dropped from ``snapshot_campaign``."""
    root = tmp_path / "tree"
    shutil.copytree(SRC / "repro" / "fuzzer", root / "repro" / "fuzzer")
    shutil.copytree(SRC / "repro" / "experiments",
                    root / "repro" / "experiments")
    checkpoint = root / "repro" / "fuzzer" / "checkpoint.py"
    source = checkpoint.read_text()
    mutated = source.replace("        execs=campaign.execs,\n", "")
    assert mutated != source, "snapshot no longer reads campaign.execs"
    checkpoint.write_text(mutated)
    # The real [tool.statlint] table governs the mutated copy too.
    shutil.copy(REPO_ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    return tmp_path


def test_omitted_snapshot_field_fails_the_lint(mutated_tree, capsys):
    code = main(["--config", str(mutated_tree / "pyproject.toml"),
                 str(mutated_tree / "tree")])
    out = capsys.readouterr().out
    assert code == 1
    assert "SNAP001" in out
    assert "'self.execs'" in out


@pytest.fixture
def reverted_aggregate_tree(tmp_path):
    """A copy of ``repro/core`` with ``aggregate_keys`` reverted to the
    float64 ``np.bincount(..., weights=)`` sum NUM101 once caught."""
    root = tmp_path / "tree"
    shutil.copytree(SRC / "repro" / "core", root / "repro" / "core")
    bitmap = root / "repro" / "core" / "bitmap_base.py"
    source = bitmap.read_text()
    fixed = ("    summed = np.zeros(unique.size, dtype=np.int64)\n"
             "    np.add.at(summed, inverse, np.asarray(counts, "
             "dtype=np.int64))\n")
    assert fixed in source, "aggregate_keys no longer sums via add.at"
    bitmap.write_text(source.replace(
        fixed, "    summed = np.bincount(inverse, weights=counts)"
               ".astype(np.int64)\n"))
    shutil.copy(REPO_ROOT / "pyproject.toml", tmp_path / "pyproject.toml")
    return tmp_path


def test_reverted_aggregate_keys_fails_the_lint(reverted_aggregate_tree,
                                                 capsys):
    code = main(["--config",
                 str(reverted_aggregate_tree / "pyproject.toml"),
                 str(reverted_aggregate_tree / "tree")])
    out = capsys.readouterr().out
    assert code == 1
    assert "repro/core/bitmap_base.py" in out
    assert "NUM101" in out


def test_seeded_wallclock_violation_fails_the_lint(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nstart = time.time()\n")
    code = main(["--config", str(REPO_ROOT / "pyproject.toml"),
                 str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "DET001" in out


def test_list_rules_catalog(capsys):
    code = main(["--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    listed = {line.split()[0] for line in out.splitlines()
              if line and not line[0].isspace()}
    assert listed == KEPT_RULES


def test_missing_path_is_a_usage_error(capsys):
    code = main(["--config", str(REPO_ROOT / "pyproject.toml"),
                 str(REPO_ROOT / "no-such-dir")])
    assert code == 3
    assert "no such path" in capsys.readouterr().err


def test_bad_config_key_is_a_config_error(tmp_path, capsys):
    pyproject = tmp_path / "pyproject.toml"
    pyproject.write_text("[tool.statlint]\nno-such-option = true\n")
    (tmp_path / "empty.py").write_text("")
    code = main(["--config", str(pyproject), str(tmp_path / "empty.py")])
    assert code == 3
    assert "bad configuration" in capsys.readouterr().err


def test_repo_config_lists_every_rule(repo_config):
    assert set(repo_config.enable) == KEPT_RULES
    assert "repro/core/walltime.py" in repo_config.wallclock_allow
    assert "repro/telemetry/*" in repo_config.telemetry_paths
    assert "repro/core/*" in repo_config.num_hot_paths


def test_shipped_tree_is_clean_against_committed_baseline(capsys):
    """The acceptance contract: SARIF output, committed baseline, exit 0."""
    code = main(["--config", str(REPO_ROOT / "pyproject.toml"),
                 "--format", "sarif",
                 "--baseline", str(REPO_ROOT / ".statlint-baseline.json"),
                 str(SRC)])
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    run = report["runs"][0]
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert rule_ids == KEPT_RULES
    # Every non-suppressed result must be baselined or absent; the
    # shipped tree has none.
    assert all(r["suppressions"] for r in run["results"])
