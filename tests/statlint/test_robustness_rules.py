"""ERR001/ERR002/NUM001: broad-except routing, atomic writes on fault
paths, and narrow-int arithmetic."""

from lint_helpers import fired, lint

SWALLOW = "try:\n    fn()\nexcept Exception:\n    result = None\n"
FAULTS = "src/repro/faults/writer.py"
WRITE = "with open(path, 'wb') as fh:\n    fh.write(data)\n"


class TestBroadExcept:
    def test_fires_on_swallowed_exception(self):
        (violation,) = lint(SWALLOW)
        assert (violation.rule, violation.line) == ("ERR001", 3)

    def test_fires_on_bare_except(self):
        (violation,) = lint(SWALLOW.replace("except Exception:", "except:"))
        assert "bare except" in violation.message

    def test_reraise_passes(self):
        assert fired(SWALLOW.replace("result = None", "raise")) == []

    def test_chaining_into_error_class_passes(self):
        # The supervised-fault pattern: wrap into a *Error taxonomy
        # class (original chained as __cause__) and account for it.
        assert fired(SWALLOW.replace(
            "result = None", "record(InstanceFaultError.wrap(0, exc))")) == []

    def test_narrow_except_is_not_flagged(self):
        assert fired(SWALLOW.replace("Exception", "FileNotFoundError")) == []


class TestFleetArtifactWrites:
    def test_fires_on_open_w_on_a_fleet_path(self):
        (violation,) = lint(WRITE, path=FAULTS)
        assert violation.rule == "ERR002"
        assert "atomic" in violation.message

    def test_fires_on_mode_keyword(self):
        assert fired(WRITE.replace("'wb'", "mode='w'"), FAULTS) == ["ERR002"]

    def test_fires_on_pass_swallow_on_a_fleet_path(self):
        # A pass-only broad except trips both the general routing rule
        # and the fault-path one.
        assert fired(SWALLOW.replace("result = None", "pass"), FAULTS) == [
            "ERR001", "ERR002"]

    def test_reads_appends_and_inplace_pass(self):
        # Appends and in-place r+b edits never truncate the file; reads
        # are never torn by the writer dying.
        assert fired("open(path, 'rb'); open(path, 'a'); open(path, 'r+b')",
                     FAULTS) == []

    def test_same_code_off_fleet_paths_passes(self):
        assert fired(WRITE, path="src/repro/analysis/export.py") == []


class TestNarrowIntArithmetic:
    COUNTERS = "import numpy as np\ncounters = np.zeros(64, dtype=np.uint8)\n"

    def test_fires_on_uint8_add(self):
        (violation,) = lint(self.COUNTERS + "total = counters + 1\n")
        assert violation.rule == "NUM001"
        assert "'counters'" in violation.message

    def test_fires_on_augmented_assignment(self):
        assert fired("import numpy as np\n"
                     "def bump(hits):\n"
                     "    self.store = np.zeros(16, dtype='uint16')\n"
                     "    self.store[hits] += 1\n") == ["NUM001"]

    def test_fires_on_astype_narrowed_value(self):
        assert fired("import numpy as np\n"
                     "narrow = wide.astype(np.uint8)\n"
                     "tripled = narrow * 3\n") == ["NUM001"]

    def test_widening_cast_passes(self):
        # The idiom used by apply_counts in repro.core.bitmap_base.
        assert fired(self.COUNTERS +
                     "total = counters.astype(np.int64) + summed\n") == []

    def test_wide_arrays_pass(self):
        assert fired(self.COUNTERS.replace("uint8", "int64") +
                     "total = counters + 1\n") == []
