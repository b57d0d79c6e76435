"""Metrics-registry semantics the serve report now depends on."""

import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from repro.errors import ParameterError
from repro.obs.registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
)


class TestCounter:
    def test_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("serve.requests")
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_decrease(self):
        c = MetricsRegistry().counter("serve.requests")
        with pytest.raises(ParameterError, match="cannot decrease"):
            c.inc(-1)


class TestGauge:
    def test_set_and_sample_track_last_value(self):
        g = MetricsRegistry().gauge("sched.queue_depth")
        g.set(4)
        assert g.value == 4
        g.sample(0.1, 2)
        g.sample(0.2, 5)
        assert g.value == 5
        assert g.samples == [(0.1, 2), (0.2, 5)]

    def test_same_timestamp_last_write_wins(self):
        """Mirrors the simulator: the last decision at an instant is
        the instant's state — no duplicate timeline points."""
        g = MetricsRegistry().gauge("sched.queue_depth")
        g.sample(0.1, 1)
        g.sample(0.1, 3)
        g.sample(0.1, 2)
        assert g.samples == [(0.1, 2)]
        assert g.max_sample == 2

    def test_max_sample_empty(self):
        assert MetricsRegistry().gauge("g").max_sample == 0.0


class TestHistogram:
    def test_sum_matches_left_to_right_float_arithmetic(self):
        # The byte-parity guarantee hinges on this: hist.sum must equal
        # sum(list) over the same observations in the same order.
        values = [0.1, 0.2, 0.3, 1e-9, 7.7]
        h = MetricsRegistry().histogram("serve.latency_ms")
        for v in values:
            h.observe(v)
        assert h.sum == sum(values)
        assert h.count == len(values)
        assert h.mean == sum(values) / len(values)
        assert h.values == values

    def test_percentile_is_nearest_rank(self):
        h = MetricsRegistry().histogram("serve.latency_ms")
        for v in (5.0, 1.0, 3.0, 2.0, 4.0):
            h.observe(v)
        expected = {0: 1.0, 20: 1.0, 21: 2.0, 50: 3.0, 95: 5.0, 99: 5.0, 100: 5.0}
        for q, value in expected.items():
            assert h.percentile(q) == value

    def test_bucket_counts_cumulative_with_inf(self):
        h = MetricsRegistry().histogram("h", buckets=(1.0, 10.0))
        for v in (0.5, 0.9, 5.0, 50.0):
            h.observe(v)
        assert h.bucket_counts() == [(1.0, 2), (10.0, 3), (float("inf"), 4)]

    @given(values=st.lists(st.one_of(st.floats(), st.integers(-5, 5)),
                           max_size=40),
           buckets=st.lists(st.floats(), min_size=1, max_size=6))
    def test_bucket_counts_equal_a_scan_per_bound(self, values, buckets):
        """One sort and a bisection per bound count what a scan of every
        value per bound counts, NaN and infinities included."""
        try:
            h = Histogram("h", (), sorted(buckets))
        except ParameterError:
            assume(False)
        for v in values:
            h.observe(v)
        scan = [(bound, sum(1 for v in h.values if v <= bound))
                for bound in h.buckets] + [(float("inf"), len(h.values))]
        assert h.bucket_counts() == scan

    def test_buckets_must_strictly_increase(self):
        reg = MetricsRegistry()
        with pytest.raises(ParameterError, match="strictly increasing"):
            reg.histogram("h", buckets=(1.0, 1.0, 2.0))
        with pytest.raises(ParameterError, match="strictly increasing"):
            reg.histogram("h2", buckets=(2.0, 1.0))

    def test_default_buckets(self):
        h = MetricsRegistry().histogram("h")
        assert h.buckets == DEFAULT_BUCKETS


class TestRegistry:
    def test_same_name_and_labels_share_the_instrument(self):
        reg = MetricsRegistry()
        a = reg.counter("serve.requests", {"kind": "kyber"})
        b = reg.counter("serve.requests", {"kind": "kyber"})
        c = reg.counter("serve.requests", {"kind": "dilithium"})
        assert a is b
        assert a is not c
        assert len(reg) == 2

    def test_label_order_does_not_matter(self):
        reg = MetricsRegistry()
        a = reg.counter("c", {"x": "1", "y": "2"})
        b = reg.counter("c", {"y": "2", "x": "1"})
        assert a is b

    def test_type_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("serve.requests")
        with pytest.raises(ParameterError, match="already registered"):
            reg.gauge("serve.requests")
        with pytest.raises(ParameterError, match="already registered"):
            reg.histogram("serve.requests")

    def test_bad_name_rejected(self):
        reg = MetricsRegistry()
        with pytest.raises(ParameterError):
            reg.counter("")
        with pytest.raises(ParameterError):
            reg.counter("has space")

    def test_bad_names_rejected_every_time_next_to_accepted_ones(self):
        reg = MetricsRegistry()
        for _ in range(2):
            assert reg.counter("serve.requests").name == "serve.requests"
            for bad in ("", "has space", "tab\there", "serve.requests "):
                with pytest.raises(ParameterError,
                                   match="metric name must be non-empty"):
                    reg.counter(bad)
                with pytest.raises(ParameterError,
                                   match="metric name must be non-empty"):
                    reg.histogram(bad)

    def test_collect_is_sorted_and_get_is_exact(self):
        reg = MetricsRegistry()
        reg.counter("b.metric")
        reg.gauge("a.metric")
        reg.counter("b.metric", {"kind": "x"})
        names = [(i.name, i.labels) for i in reg.collect()]
        assert names == sorted(names)
        assert isinstance(reg.get("a.metric"), Gauge)
        assert isinstance(reg.get("b.metric", {"kind": "x"}), Counter)
        assert reg.get("b.metric", {"kind": "missing"}) is None

    def test_series_and_label_values(self):
        reg = MetricsRegistry()
        reg.histogram("serve.latency_ms")
        reg.histogram("serve.latency_ms", {"kind": "kyber"})
        reg.histogram("serve.latency_ms", {"kind": "dilithium"})
        series = reg.series("serve.latency_ms")
        assert len(series) == 3
        assert all(isinstance(s, Histogram) for s in series)
        assert reg.label_values("serve.latency_ms", "kind") == \
            ["dilithium", "kyber"]
        assert reg.label_values("serve.latency_ms", "tenant") == []
