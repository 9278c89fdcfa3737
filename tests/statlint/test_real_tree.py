"""The invariants over the real tree: every module under ``src``,
``benchmarks`` and ``examples`` is clean apart from the allowed sites,
and seeding a real violation turns the checks red."""

import inspect

from lint_helpers import (REPO_ROOT, Source, lint, lint_source,
                          shipped_sources, snapshot_drift, started_campaign)

#: Sites allowed to break an invariant, keyed by (rule, path, enclosing
#: function), with the reason. A new site elsewhere, even in the same
#: file, still fails; an entry that matches nothing fails as stale.
ALLOWED = {
    ("DET001", "benchmarks/conftest.py", "_FallbackBenchmark.__call__"):
        "the fallback bench fixture times the host on purpose",
    ("DET001", "benchmarks/test_bench_mp.py", "_run"):
        "the bench reports host throughput",
    ("DET001", "benchmarks/test_bench_mp.py", "_measure_8mb"):
        "the bench reports host throughput",
    ("DET001", "benchmarks/test_bench_batch.py", "_run"):
        "the bench reports host throughput",
    ("ERR001", "src/repro/fuzzer/mp.py", "MPCampaign.__del__"):
        "a finalizer must never raise; explicit close() surfaces errors",
    ("ERR001", "src/repro/telemetry/serve/background.py",
     "BackgroundServer._run"):
        "the stored error is re-raised by start() as TelemetryError",
}


def test_shipped_tree_is_clean():
    found = [v for src in shipped_sources() for v in lint_source(src)]
    assert [v for v in found if v[:3] not in ALLOWED] == []
    assert set(ALLOWED) - {v[:3] for v in found} == set(), "stale entry"


def test_omitted_snapshot_field_fails_the_lint(monkeypatch):
    from repro.fuzzer import checkpoint
    source = inspect.getsource(checkpoint.snapshot_campaign)
    mutated = source.replace("execs=campaign.execs,", "execs=0,")
    assert mutated != source, "snapshot no longer reads campaign.execs"
    namespace = dict(vars(checkpoint))
    exec(mutated, namespace)
    monkeypatch.setattr(checkpoint, "snapshot_campaign",
                        namespace["snapshot_campaign"])
    assert snapshot_drift(started_campaign("bigmap"),
                          checkpoint.snapshot_campaign) == [
        "execs: not captured and not exempt"]


def test_reverted_aggregate_keys_fails_the_lint():
    path = "src/repro/core/bitmap_base.py"
    source = (REPO_ROOT / path).read_text()
    fixed = ("    summed = np.zeros(unique.size, dtype=np.int64)\n"
             "    np.add.at(summed, inverse, np.asarray(counts, "
             "dtype=np.int64))\n")
    assert fixed in source, "aggregate_keys no longer sums via add.at"
    reverted = source.replace(fixed, "    summed = np.bincount(inverse, "
                              "weights=counts).astype(np.int64)\n")
    assert lint_source(Source(source, path)) == []
    (violation,) = lint_source(Source(reverted, path))
    assert (violation.rule, violation.scope) == ("NUM101", "aggregate_keys")


def test_seeded_wallclock_violation_fails_the_lint():
    (violation,) = lint("import time\nstart = time.time()\n",
                        path="src/repro/fuzzer/campaign.py")
    assert violation.rule == "DET001"
