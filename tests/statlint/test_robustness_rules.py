"""ERR001/NUM001: broad-except routing and narrow-int arithmetic."""

from lint_helpers import rules_fired


class TestBroadExcept:
    def test_fires_on_swallowed_exception(self, lint_tree):
        result = lint_tree({"mod.py": """\
            def safe(fn):
                try:
                    return fn()
                except Exception:
                    return None
            """})
        assert rules_fired(result) == ["ERR001"]
        (finding,) = result.active
        assert finding.line == 4

    def test_fires_on_bare_except(self, lint_tree):
        result = lint_tree({"mod.py": """\
            def safe(fn):
                try:
                    return fn()
                except:
                    pass
            """})
        assert rules_fired(result) == ["ERR001"]
        assert "bare except" in result.active[0].message

    def test_reraise_passes(self, lint_tree):
        result = lint_tree({"mod.py": """\
            def noisy(fn):
                try:
                    return fn()
                except Exception:
                    raise
            """})
        assert rules_fired(result) == []

    def test_chaining_into_error_class_passes(self, lint_tree):
        # The supervised-fault pattern: wrap into a *Error taxonomy
        # class (original chained as __cause__) and account for it.
        result = lint_tree({"mod.py": """\
            from repro.core.errors import InstanceFaultError

            def supervise(self, i, fn):
                try:
                    return fn()
                except Exception as exc:
                    self.record(InstanceFaultError.wrap(i, exc))
            """})
        assert rules_fired(result) == []

    def test_narrow_except_is_not_flagged(self, lint_tree):
        result = lint_tree({"mod.py": """\
            def read(path):
                try:
                    return path.read_text()
                except FileNotFoundError:
                    return ""
            """})
        assert rules_fired(result) == []

    def test_suppression_silences(self, lint_tree):
        result = lint_tree({"mod.py": """\
            def best_effort(fn):
                try:
                    return fn()
                except Exception:  # statlint: disable=ERR001 (cosmetic cleanup)
                    return None
            """})
        assert rules_fired(result) == []


class TestFleetArtifactWrites:
    def test_fires_on_open_w_on_a_fleet_path(self, lint_tree):
        result = lint_tree({"repro/faults/writer.py": """\
            def persist(path, data):
                with open(path, "wb") as fh:
                    fh.write(data)
            """})
        assert rules_fired(result) == ["ERR002"]
        assert "atomic" in result.active[0].message

    def test_fires_on_mode_keyword(self, lint_tree):
        result = lint_tree({"repro/faults/writer.py": """\
            def persist(path, text):
                with open(path, mode="w") as fh:
                    fh.write(text)
            """})
        assert rules_fired(result) == ["ERR002"]

    def test_fires_on_pass_swallow_on_a_fleet_path(self, lint_tree):
        # The pass-only broad except trips both the general routing
        # rule and the fault-path one.
        result = lint_tree({"repro/faults/cleanup.py": """\
            import os

            def tidy(path):
                try:
                    os.replace(path, path + ".bak")
                except Exception:
                    pass
            """})
        assert rules_fired(result) == ["ERR001", "ERR002"]

    def test_reads_appends_and_inplace_pass(self, lint_tree):
        # Appends and in-place r+b edits never truncate the file;
        # reads are never torn by the writer dying.
        result = lint_tree({"repro/faults/reader.py": """\
            def touch(path):
                with open(path, "rb") as fh:
                    data = fh.read()
                with open(path, "a") as fh:
                    fh.write("entry\\n")
                with open(path, "r+b") as fh:
                    fh.write(data)
            """})
        assert rules_fired(result) == []

    def test_same_code_off_fleet_paths_passes(self, lint_tree):
        result = lint_tree({"repro/analysis/export.py": """\
            def persist(path, data):
                with open(path, "wb") as fh:
                    fh.write(data)
            """})
        assert rules_fired(result) == []

    def test_suppression_covers_the_line_below(self, lint_tree):
        result = lint_tree({"repro/faults/writer.py": """\
            def atomic_write(path, data):
                # statlint: disable=ERR002 (atomic-write implementation site)
                with open(path + ".tmp", "wb") as fh:
                    fh.write(data)
            """})
        assert rules_fired(result) == []
        assert [f.rule for f in result.suppressed] == ["ERR002"]


class TestNarrowIntArithmetic:
    def test_fires_on_uint8_add(self, lint_tree):
        result = lint_tree({"mod.py": """\
            import numpy as np

            counters = np.zeros(64, dtype=np.uint8)
            total = counters + 1
            """})
        assert rules_fired(result) == ["NUM001"]
        assert "'counters'" in result.active[0].message

    def test_fires_on_augmented_assignment(self, lint_tree):
        result = lint_tree({"mod.py": """\
            import numpy as np

            def bump(hits):
                store = np.zeros(16, dtype=np.uint16)
                store += hits
                return store
            """})
        assert rules_fired(result) == ["NUM001"]

    def test_fires_on_astype_narrowed_value(self, lint_tree):
        result = lint_tree({"mod.py": """\
            import numpy as np

            def shrink(wide):
                narrow = wide.astype(np.uint8)
                return narrow * 3
            """})
        assert rules_fired(result) == ["NUM001"]

    def test_widening_cast_passes(self, lint_tree):
        # The idiom used by apply_counts in repro.core.bitmap_base.
        result = lint_tree({"mod.py": """\
            import numpy as np

            def apply(summed):
                store = np.zeros(64, dtype=np.uint8)
                return store.astype(np.int64) + summed
            """})
        assert rules_fired(result) == []

    def test_wide_arrays_pass(self, lint_tree):
        result = lint_tree({"mod.py": """\
            import numpy as np

            cycles = np.zeros(64, dtype=np.int64)
            total = cycles + 1
            """})
        assert rules_fired(result) == []

    def test_comment_line_suppression_silences(self, lint_tree):
        result = lint_tree({"mod.py": """\
            import numpy as np

            def wrap_on_purpose(deltas):
                counters = np.zeros(64, dtype=np.uint8)
                # statlint: disable=NUM001 (wrap-at-256 is the AFL policy)
                counters += deltas
                return counters
            """})
        assert rules_fired(result) == []
        assert [f.rule for f in result.suppressed] == ["NUM001"]
