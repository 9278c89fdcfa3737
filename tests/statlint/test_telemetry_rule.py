"""TEL001: inside ``repro/telemetry`` only, no host clock (not even the
walltime shim), no unseeded randomness, canonical JSON encoding and no
unordered iteration."""

from lint_helpers import TELEMETRY_PATHS, lint, shipped_sources, tel001


def tel(text, path="src/repro/telemetry/mod.py"):
    return [v.message for v in lint(text, path) if v.rule == "TEL001"]


class TestScope:
    def test_quiet_outside_telemetry_paths(self):
        assert tel("import json; json.dumps(event)",
                   path="src/repro/analysis/mod.py") == []


class TestWallClock:
    def test_fires_on_time_time(self):
        (message,) = tel("import time; time.time()")
        assert "virtual clock" in message

    def test_fires_on_walltime_shim(self):
        # General code may use the shim; telemetry may not read host
        # time at all, so even the allowlisted entry point is flagged.
        assert len(tel("from repro.core.walltime import wall_now\n"
                       "wall_now()\n")) == 1


class TestRandomness:
    def test_fires_on_stdlib_random(self):
        assert len(tel("import random; random.random()")) == 1

    def test_fires_on_unseeded_default_rng(self):
        assert len(tel("import numpy as np; np.random.default_rng()")) == 1

    def test_seeded_rng_passes(self):
        assert tel("import numpy as np; np.random.default_rng(seed)") == []


class TestCanonicalJson:
    def test_fires_on_dumps_without_sort_keys(self):
        (message,) = tel("import json; json.dumps(event)")
        assert "sort_keys" in message

    def test_fires_on_sort_keys_false(self):
        assert len(tel("import json; json.dumps(event, sort_keys=False)")) == 1

    def test_sorted_encoding_passes(self):
        assert tel("import json\n"
                   "json.dumps(event, sort_keys=True, indent=1)\n") == []


class TestUnorderedIteration:
    def test_fires_on_set_iteration(self):
        assert len(tel("names = [e for e in set(events)]")) == 1

    def test_fires_on_dict_keys_loop(self):
        assert len(tel("for key in stats.keys():\n    print(key)\n")) == 1

    def test_sorted_iteration_passes(self):
        assert tel("lines = [key for key in sorted(stats)]") == []


class TestRealTree:
    def test_shipping_telemetry_package_is_clean(self):
        telemetry = [src for src in shipped_sources()
                     if src.in_scope(TELEMETRY_PATHS)]
        assert len(telemetry) > 5
        assert [v for src in telemetry for v in tel001(src)] == []
