"""DET001/DET002/DET003: each fires on a seeded violation and stays
quiet on the compliant variant."""

from lint_helpers import fired, lint


class TestWallClock:
    def test_fires_on_time_time(self):
        (violation,) = lint("import time\n\ndef stamp():\n    time.time()\n")
        assert violation[:4] == ("DET001", "mod.py", "stamp", 4)
        assert "time.time" in violation.message

    def test_fires_on_datetime_now(self):
        assert fired("import datetime; datetime.datetime.now()") == ["DET001"]

    def test_fires_on_aliased_import(self):
        assert fired("from time import perf_counter as pc; pc()") == [
            "DET001"]

    def test_allowlisted_shim_passes(self):
        assert fired("import time; time.perf_counter()",
                     path="src/repro/core/walltime.py") == []

    def test_local_name_time_is_not_flagged(self):
        # No `import time`: a local callable named `time` is fine.
        assert fired("def run(time):\n    return time.time()\n") == []


class TestUnseededRandom:
    def test_fires_on_stdlib_random(self):
        assert fired("import random; random.random()") == ["DET002"]

    def test_fires_on_legacy_numpy_random(self):
        assert fired("import numpy as np; np.random.rand(4)") == ["DET002"]

    def test_fires_on_unseeded_default_rng(self):
        assert fired("import numpy as np; np.random.default_rng()") == [
            "DET002"]

    def test_fires_on_seed_none(self):
        assert fired("from numpy.random import default_rng\n"
                     "default_rng(seed=None)\n") == ["DET002"]

    def test_seeded_generator_passes(self):
        assert fired("import numpy as np\n"
                     "np.random.default_rng(seed).integers(0, 256)\n") == []


class TestUnorderedIteration:
    OUTPUT = "src/repro/analysis/report.py"

    def test_fires_on_set_iteration_in_output_path(self):
        assert fired("for name in set(names):\n    print(name)\n",
                     path=self.OUTPUT) == ["DET003"]

    def test_fires_on_dict_keys_comprehension(self):
        assert fired("rows = [table[k] for k in table.keys()]",
                     path=self.OUTPUT) == ["DET003"]

    def test_sorted_wrapping_passes(self):
        assert fired("for name in sorted(set(names)):\n    print(name)\n",
                     path=self.OUTPUT) == []

    def test_non_output_modules_are_not_checked(self):
        assert fired("for name in set(names):\n    print(name)\n",
                     path="src/repro/core/scratch.py") == []
