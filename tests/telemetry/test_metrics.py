"""Metrics primitives: counters, gauges, fixed-bucket histograms, and
the registry's get-or-create + snapshot + state roundtrip surface."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import TelemetryError
from repro.telemetry.metrics import (SHARE_BUCKETS, Counter, Gauge,
                                     Histogram, MetricsRegistry)


class TestCounter:
    def test_accumulates(self):
        c = Counter("a.b")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_rejects_negative(self):
        with pytest.raises(TelemetryError):
            Counter("a.b").inc(-1)

    def test_registry_rejects_bad_name(self):
        with pytest.raises(TelemetryError):
            MetricsRegistry().counter("Not A Name")


class TestHistogram:
    def test_bucketing_with_overflow(self):
        h = Histogram("h.x", (1.0, 10.0))
        for value in (0.5, 0.9, 5.0, 100.0):
            h.observe(value)
        assert h.counts == [2, 1, 1]   # <=1, <=10, overflow
        assert h.total == 4

    def test_mean(self):
        h = Histogram("h.x", (10.0,))
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == pytest.approx(3.0)
        assert Histogram("h.y", (1.0,)).mean == 0.0

    def test_rejects_unsorted_bounds(self):
        with pytest.raises(TelemetryError):
            Histogram("h.x", (5.0, 1.0))

    def test_share_buckets_strictly_increasing(self):
        assert list(SHARE_BUCKETS) == sorted(SHARE_BUCKETS)
        assert len(set(SHARE_BUCKETS)) == len(SHARE_BUCKETS)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(values=st.lists(st.one_of(
               st.sampled_from(SHARE_BUCKETS + (0.0, 1.0, 1.5, 7.0)),
               st.floats(0.0, 2.0)), max_size=40),
           split=st.integers(0, 40))
    def test_observe_many_matches_sequential_observe(self, values, split):
        """Bulk observation is bit-equal to one ``observe`` per value —
        edge values, 0.0, 1.0 and overflow included — and both match a
        first-edge-at-or-above linear scan with a scalar ``+=`` sum."""
        bulk, single = Histogram("h.bulk"), Histogram("h.single")
        bulk.observe_many(values[:split])
        bulk.observe_many(values[split:])
        for value in values:
            single.observe(value)
        counts, total = [0] * (len(SHARE_BUCKETS) + 1), 0.0
        for value in values:
            counts[next((i for i, edge in enumerate(SHARE_BUCKETS)
                         if value <= edge), len(SHARE_BUCKETS))] += 1
            total += value
        for h in (bulk, single):
            assert h.counts == counts
            assert h.total == len(values)
            assert h.sum.hex() == total.hex()


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("c.x") is reg.counter("c.x")

    def test_kind_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.counter("m.x")
        with pytest.raises(TelemetryError):
            reg.gauge("m.x")

    def test_histogram_boundary_mismatch_raises(self):
        reg = MetricsRegistry()
        reg.histogram("h.x", (1.0, 2.0))
        with pytest.raises(TelemetryError):
            reg.histogram("h.x", (1.0, 3.0))

    def test_snapshot_is_name_sorted(self):
        reg = MetricsRegistry()
        reg.counter("z.last").inc()
        reg.gauge("a.first").set(2.0)
        assert list(reg.snapshot()) == ["a.first", "z.last"]

    def test_state_roundtrip(self):
        reg = MetricsRegistry()
        reg.counter("c.x").inc(3)
        reg.gauge("g.x").set(1.5)
        reg.histogram("h.x", (1.0,)).observe(0.5)
        state = reg.dump_state()
        reg.counter("c.x").inc(10)       # diverge after capture
        reg.load_state(state)
        assert reg.counter("c.x").value == 3
        assert reg.gauge("g.x").value == 1.5
        assert reg.histogram("h.x", (1.0,)).total == 1

    def test_load_state_resets_unknown_metrics(self):
        reg = MetricsRegistry()
        reg.counter("c.x").inc(3)
        state = reg.dump_state()
        reg.counter("c.new").inc(7)      # created after the capture
        reg.load_state(state)
        assert reg.counter("c.new").value == 0
        assert reg.counter("c.x").value == 3
