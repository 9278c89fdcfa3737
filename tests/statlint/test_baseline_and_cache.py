"""Baseline-ratchet, SARIF and exit-code contract tests.

The CLI contract under test::

    0  clean (or nothing beyond the baseline)
    1  findings, no baseline in play
    2  new findings versus the baseline — the ratchet tripped
    3  usage or configuration error
"""

import json
import textwrap

import pytest

from repro.statlint.baseline import Baseline, BaselineError, fingerprint
from repro.statlint.cli import main
from repro.statlint.findings import Finding

VIOLATION = "import time\nstart = time.time()\n"
CLEAN = "def f():\n    return 1\n"


@pytest.fixture
def tree(tmp_path):
    """A tiny project: pyproject + src/app.py with one DET001 hit."""
    (tmp_path / "pyproject.toml").write_text(textwrap.dedent('''
        [tool.statlint]
        enable = ["DET001"]
    '''))
    src = tmp_path / "src"
    src.mkdir()
    (src / "app.py").write_text(VIOLATION)
    return tmp_path


def run(tree, *extra):
    return main(["--config", str(tree / "pyproject.toml"),
                 str(tree / "src"), *extra])


# -- exit codes --------------------------------------------------------


def test_findings_without_baseline_exit_1(tree, capsys):
    assert run(tree) == 1
    assert "1 finding(s)" in capsys.readouterr().out


def test_clean_tree_exits_0(tree, capsys):
    (tree / "src" / "app.py").write_text(CLEAN)
    assert run(tree) == 0


def test_update_baseline_then_rerun_exits_0(tree, capsys):
    baseline = tree / "baseline.json"
    assert run(tree, "--baseline", str(baseline),
               "--update-baseline") == 0
    data = json.loads(baseline.read_text())
    assert data["version"] == 1
    assert list(data["fingerprints"].values()) == [1]
    (key,) = data["fingerprints"]
    assert key.startswith("src/app.py::DET001::")

    capsys.readouterr()
    assert run(tree, "--baseline", str(baseline)) == 0
    out = capsys.readouterr().out
    assert "0 new finding(s), 1 grandfathered" in out
    assert "(baseline)" in out


def test_new_finding_beyond_baseline_exits_2(tree, capsys):
    baseline = tree / "baseline.json"
    run(tree, "--baseline", str(baseline), "--update-baseline")
    (tree / "src" / "extra.py").write_text(VIOLATION)
    capsys.readouterr()
    assert run(tree, "--baseline", str(baseline)) == 2
    assert "1 new finding(s), 1 grandfathered" in capsys.readouterr().out


def test_fixing_the_finding_leaves_a_stale_baseline_harmless(tree):
    baseline = tree / "baseline.json"
    run(tree, "--baseline", str(baseline), "--update-baseline")
    (tree / "src" / "app.py").write_text(CLEAN)
    assert run(tree, "--baseline", str(baseline)) == 0


def test_missing_baseline_file_is_an_empty_baseline(tree, capsys):
    assert run(tree, "--baseline", str(tree / "nope.json")) == 2
    assert "1 new finding(s), 0 grandfathered" in capsys.readouterr().out


def test_corrupt_baseline_exits_3(tree, capsys):
    bad = tree / "bad.json"
    bad.write_text("{not json")
    assert run(tree, "--baseline", str(bad)) == 3
    assert "unreadable baseline" in capsys.readouterr().err


def test_update_baseline_requires_baseline_path(tree, capsys):
    assert run(tree, "--update-baseline") == 3
    assert "--update-baseline requires --baseline" in \
        capsys.readouterr().err


def test_baseline_budget_counts_duplicates():
    """A baseline entry of 1 covers one of two identical findings."""
    finding = Finding(path="a.py", line=3, col=0, rule="DET001",
                      message="same message")
    twin = Finding(path="a.py", line=9, col=0, rule="DET001",
                   message="same message")
    baseline = Baseline(counts={fingerprint(finding): 1})
    applied = baseline.apply([finding, twin])
    assert [f.baselined for f in applied] == [True, False]


def test_baseline_rejects_bad_counts(tmp_path):
    path = tmp_path / "b.json"
    path.write_text(json.dumps(
        {"version": 1, "fingerprints": {"x::DET001::m": 0}}))
    with pytest.raises(BaselineError):
        Baseline.load(path)


# -- sarif -------------------------------------------------------------


def test_sarif_baseline_states(tree, capsys):
    baseline = tree / "baseline.json"
    run(tree, "--baseline", str(baseline), "--update-baseline")
    (tree / "src" / "extra.py").write_text(VIOLATION)
    capsys.readouterr()
    code = run(tree, "--baseline", str(baseline), "--format", "sarif")
    report = json.loads(capsys.readouterr().out)
    assert code == 2
    states = sorted(r["baselineState"]
                    for r in report["runs"][0]["results"])
    assert states == ["new", "unchanged"]


def test_sarif_catalog_levels_and_suppressions(tree, capsys):
    (tree / "src" / "app.py").write_text(
        "import time\n"
        "start = time.time()  # statlint: disable=DET001 (probe)\n")
    code = run(tree, "--format", "sarif")
    report = json.loads(capsys.readouterr().out)
    assert code == 0
    run_obj = report["runs"][0]
    levels = {r["id"]: r["defaultConfiguration"]["level"]
              for r in run_obj["tool"]["driver"]["rules"]}
    assert set(levels.values()) == {"error"}
    # Suppressed findings ship with an inSource suppression record.
    (result,) = run_obj["results"]
    assert result["level"] == "error"
    assert result["suppressions"] == [{"kind": "inSource"}]
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == "src/app.py"
    assert location["region"]["startLine"] == 2
