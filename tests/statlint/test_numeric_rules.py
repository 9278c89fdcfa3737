"""NUM101: no float64 ``np.bincount(..., weights=)`` in the hot-path
kernels of ``repro/core`` and ``repro/fuzzer``."""

from lint_helpers import fired, lint

KERNEL = "src/repro/core/agg.py"
WEIGHTED = "import numpy as np\nsummed = np.bincount(keys, weights=counts)\n"


def test_bincount_with_weights_flagged():
    (violation,) = lint(WEIGHTED, path=KERNEL)
    assert violation.rule == "NUM101"
    assert "float64" in violation.message


def test_positional_weights_flagged_minlength_is_not():
    (violation,) = lint("from numpy import bincount\n"
                        "hits = bincount(keys, minlength=n)\n"
                        "summed = bincount(keys, counts)\n", path=KERNEL)
    assert (violation.rule, violation.line) == ("NUM101", 3)


def test_integral_math_passes_num101():
    assert fired("import numpy as np\n"
                 "summed = np.zeros(unique.size, dtype=np.int64)\n"
                 "np.add.at(summed, inverse, counts)\n", path=KERNEL) == []


def test_hot_path_gating():
    assert fired(WEIGHTED, path="src/repro/analysis/plots.py") == []
