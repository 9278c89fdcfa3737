"""Analysis utilities: collision math, bias-free coverage, reporting."""

from .collision import (collision_probability, collision_rate,
                        collision_rate_table, expected_distinct_keys,
                        keys_for_collision_probability)
from .coverage_eval import covered_edge_mask, evaluate_corpus
from .reporting import render_bar_block, render_series, render_table
from .serialize import (load_corpus, load_result, result_from_dict,
                        result_to_dict, save_corpus, save_result)
from .throughput import (arithmetic_mean, average_speedup, geometric_mean,
                         speedups)

__all__ = [
    "collision_probability", "collision_rate", "collision_rate_table",
    "expected_distinct_keys", "keys_for_collision_probability",
    "covered_edge_mask", "evaluate_corpus",
    "render_bar_block", "render_series", "render_table",
    "load_corpus", "load_result", "result_from_dict", "result_to_dict",
    "save_corpus", "save_result",
    "arithmetic_mean", "average_speedup", "geometric_mean", "speedups",
]
