"""Parity between recorded BENCH_*.json artifacts and the
EXPERIMENTS.md bench-trajectory table (see
repro.analysis.bench_trajectory)."""

import json
from pathlib import Path

import pytest

from repro.analysis.bench_trajectory import (
    BenchRecord, documented_trajectory_table, load_bench_records,
    render_trajectory_table)
from repro.core.errors import ExperimentError

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestLoader:
    def test_loads_bench_5(self):
        records = load_bench_records(REPO_ROOT)
        assert any(r.pr == 5 for r in records)
        (rec,) = [r for r in records if r.pr == 5]
        assert rec.bench == "batch_engine"
        assert rec.serial_execs_per_sec == pytest.approx(3015.2)
        assert rec.batched_execs_per_sec == pytest.approx(10294.4)
        assert rec.speedup == pytest.approx(3.414)
        assert rec.identical_results is True
        assert "zlib/bigmap @ 64k" in rec.workload

    def test_records_are_pr_ordered(self):
        records = load_bench_records(REPO_ROOT)
        assert [r.pr for r in records] == sorted(r.pr for r in records)

    def test_default_root_resolves_to_repo(self):
        assert load_bench_records() == load_bench_records(REPO_ROOT)

    def test_heterogeneous_schemas_load_side_by_side(self, tmp_path):
        """BENCH_6 adds backend/workers/window; older artifacts lack
        them. One directory holding both generations must load."""
        common = {"bench": "batch_engine",
                  "workload": {"benchmark": "zlib", "fuzzer": "bigmap",
                               "map_size": 65536},
                  "execs": 20000, "serial_execs_per_sec": 100.0,
                  "batched_execs_per_sec": 300.0, "speedup": 3.0,
                  "identical_results": True}
        (tmp_path / "BENCH_5.json").write_text(json.dumps(common),
                                               encoding="utf-8")
        newer = dict(common, backend="mp", workers=2, window=8)
        (tmp_path / "BENCH_6.json").write_text(json.dumps(newer),
                                               encoding="utf-8")
        old, new = load_bench_records(tmp_path)
        assert (old.backend, old.workers, old.window) == (None,) * 3
        assert (new.backend, new.workers, new.window) == ("mp", 2, 8)
        assert "W=8" in new.workload and "W=" not in old.workload
        # Both generations render into the same table.
        table = render_trajectory_table([old, new])
        assert table.count("\n") == 3

    def test_loads_bench_6(self):
        records = load_bench_records(REPO_ROOT)
        (rec,) = [r for r in records if r.pr == 6]
        assert rec.window == 8
        assert rec.workers is not None
        assert rec.backend is not None
        assert rec.speedup >= 3.0
        assert rec.identical_results is True

    def test_missing_field_raises(self, tmp_path):
        (tmp_path / "BENCH_9.json").write_text(
            json.dumps({"bench": "x"}), encoding="utf-8")
        with pytest.raises(ExperimentError, match="missing field"):
            load_bench_records(tmp_path)

    def test_corrupt_artifact_raises(self, tmp_path):
        (tmp_path / "BENCH_9.json").write_text("{not json",
                                               encoding="utf-8")
        with pytest.raises(ExperimentError, match="unreadable"):
            load_bench_records(tmp_path)

    def test_non_matching_files_ignored(self, tmp_path):
        (tmp_path / "BENCH_notes.json").write_text("{}",
                                                   encoding="utf-8")
        assert load_bench_records(tmp_path) == []


class TestTableParity:
    def test_documented_table_matches_artifacts(self):
        # The satellite contract: the doc table and the recorded JSON
        # artifacts cannot diverge. Regenerate the table from the
        # artifacts and hold EXPERIMENTS.md to it byte-exactly.
        records = load_bench_records(REPO_ROOT)
        assert records, "no BENCH_*.json artifacts at the repo root"
        expected = render_trajectory_table(records)
        documented = documented_trajectory_table(
            REPO_ROOT / "EXPERIMENTS.md")
        assert documented == expected

    def test_render_flags_nonidentical_results(self):
        record = BenchRecord(
            pr=9, path=Path("BENCH_9.json"), bench="x",
            workload="w", serial_execs_per_sec=1.0,
            batched_execs_per_sec=2.0, speedup=2.0,
            identical_results=False)
        assert "| NO |" in render_trajectory_table([record])

    def test_missing_table_raises(self, tmp_path):
        doc = tmp_path / "EXPERIMENTS.md"
        doc.write_text("# nothing here\n", encoding="utf-8")
        with pytest.raises(ExperimentError, match="no bench"):
            documented_trajectory_table(doc)
