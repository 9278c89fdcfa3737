"""Extension experiment: metric stacking vs ensemble fuzzing (§VI).

The paper contrasts BigMap-enabled *stacking* (laf-intel + N-gram in
one instance, §V-C) with *ensemble* fuzzing (one instance per metric,
periodically cross-pollinating) and names their comparison "an
interesting avenue for future research". This harness runs that
comparison at equal core budgets:

* **stacked**: k identical BigMap instances, each running the composed
  laf-intel + N-gram metric on a 2 MB map;
* **ensemble**: k BigMap instances with *different* metrics (edge,
  N-gram, context, trace-pc-guard), sharing a corpus.

Reported: total executions, union of unique crashes, and the bias-free
edge coverage of the merged corpora.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict

from ..analysis.coverage_eval import evaluate_corpus
from ..analysis.reporting import render_table
from ..fuzzer import CampaignConfig, ParallelSession
from ..target import Executor
from .common import BenchmarkCache, Profile, get_profile

#: Runner registry id for this experiment (tests/statlint/
#: test_project_rules.py keeps the module, the registry and ORDER
#: consistent).
EXPERIMENT_ID = "ensemble"

BENCHMARK = "gvn"
ENSEMBLE_METRICS = ("afl-edge", "ngram3", "afl-edge+context",
                    "trace-pc-guard")
MAP_SIZE = 1 << 21


def compute(profile: Profile, cache: BenchmarkCache = None) -> Dict:
    cache = cache or BenchmarkCache()
    scale = profile.composition_scale
    built = cache.get(BENCHMARK, scale, profile.seed_scale)
    k = len(ENSEMBLE_METRICS)
    base = CampaignConfig(
        benchmark=BENCHMARK, fuzzer="bigmap", map_size=MAP_SIZE,
        scale=scale, seed_scale=profile.seed_scale,
        virtual_seconds=profile.campaign_virtual_seconds,
        max_real_execs=max(profile.campaign_max_execs // k, 400))

    stacked = ParallelSession(
        replace(base, metric="ngram3", lafintel=True), k,
        built=built).run()
    ensemble = ParallelSession(
        [replace(base, metric=metric, rng_seed=i * 37)
         for i, metric in enumerate(ENSEMBLE_METRICS)],
        built=built).run()

    executor = Executor(built.program)
    out: Dict = {"k": k}
    for label, summary in (("stacked", stacked),
                           ("ensemble", ensemble)):
        merged = []
        for result in summary.per_instance:
            merged.extend(result.corpus)
        out[label] = {
            "execs": summary.total_execs,
            "crashes": summary.unique_crashes,
            "corpus": len(merged),
        }
        if label == "ensemble":
            out[label]["true_coverage"] = evaluate_corpus(
                built.program, merged, executor=executor)
        else:
            # Stacked instances run the laf-transformed program; their
            # corpus is re-evaluated on it for a fair true count.
            from ..instrumentation import apply_lafintel
            transformed = apply_lafintel(built.program)
            out[label]["true_coverage"] = evaluate_corpus(
                transformed, merged)
    return out


def render(data: Dict) -> str:
    """The report for :func:`compute`'s result."""
    rows = []
    for label in ("stacked", "ensemble"):
        d = data[label]
        rows.append([label, d["execs"], d["corpus"],
                     d["true_coverage"], d["crashes"]])
    report = render_table(
        ["Strategy", "Total execs", "Corpus", "True edges", "Crashes"],
        rows,
        title=f"Extension — stacked (laf+ngram) vs ensemble fuzzing, "
              f"{data['k']} instances on {BENCHMARK} (paper §VI "
              "future work)")
    report += ("\n\nReading: stacking explores one rich metric deeply "
               "(and is what needs BigMap's large maps); the ensemble "
               "diversifies cheaply but each member sees a coarser "
               "signal. Crash columns decide which wins at this budget.")
    return report


def run(profile: Profile, cache: BenchmarkCache = None) -> str:
    return render(compute(profile, cache))


def main() -> None:
    print(run(get_profile("default")))


if __name__ == "__main__":
    main()
