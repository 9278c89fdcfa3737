"""Golden tests for the hot-path float64 bincount rule (NUM101).

NUM101 runs over ``num_hot_paths`` files only; each case has a seeded
violation, a suppressed variant, and a fixed variant, plus the
hot-path gating negative.
"""

from repro.statlint import LintConfig

from lint_helpers import rules_fired

NUM101 = LintConfig(enable=("NUM101",))


def test_bincount_with_weights_flagged(lint_tree):
    result = lint_tree({
        "repro/core/agg.py": '''
            import numpy as np

            def aggregate(keys, counts):
                return np.bincount(keys, weights=counts)
        ''',
    }, NUM101)
    (finding,) = result.active
    assert finding.rule == "NUM101"
    assert "accumulates in float64" in finding.message


def test_positional_weights_flagged_minlength_is_not(lint_tree):
    result = lint_tree({
        "repro/core/agg.py": '''
            from numpy import bincount

            def aggregate(keys, counts, n):
                hits = bincount(keys, minlength=n)
                return bincount(keys, counts), hits
        ''',
    }, NUM101)
    (finding,) = result.active
    assert finding.line == 6


def test_integral_math_passes_num101(lint_tree):
    result = lint_tree({
        "repro/core/agg.py": '''
            import numpy as np

            def aggregate(keys, counts):
                unique, inverse = np.unique(keys, return_inverse=True)
                summed = np.zeros(unique.size, dtype=np.int64)
                np.add.at(summed, inverse, counts)
                return unique, summed
        ''',
    }, NUM101)
    assert result.ok


def test_hot_path_gating(lint_tree):
    """The same call outside num_hot_paths is presumed deliberate."""
    source = '''
        import numpy as np

        def histogram(keys, counts):
            return np.bincount(keys, weights=counts)
    '''
    result = lint_tree({"repro/analysis/plots.py": source}, NUM101)
    assert result.ok


def test_num_suppression(lint_tree):
    result = lint_tree({
        "repro/core/agg.py": '''
            import numpy as np

            def mean_weight(keys, weights):
                # statlint: disable=NUM101 (float weights by design)
                return np.bincount(keys, weights=weights)
        ''',
    }, NUM101)
    assert result.ok
    assert len(result.suppressed) == 1
    assert rules_fired(result) == []
