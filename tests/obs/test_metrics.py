"""MetricsRegistry: counters, labels, gauges, histogram bucket semantics."""

from __future__ import annotations

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_inc(self):
        c = Counter("c")
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_registry_get_or_create(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.counter("a") is not r.counter("b")

    def test_labels_distinguish_series(self):
        r = MetricsRegistry()
        r.counter("hc", hc="YIELD").inc()
        r.counter("hc", hc="YIELD").inc()
        r.counter("hc", hc="PRINT").inc()
        assert r.counter("hc", hc="YIELD").value == 2
        assert r.counter("hc", hc="PRINT").value == 1

    def test_label_order_irrelevant(self):
        r = MetricsRegistry()
        assert r.counter("x", a=1, b=2) is r.counter("x", b=2, a=1)


class TestGauge:
    def test_set_replaces_the_value(self):
        g = Gauge("g")
        assert g.value == 0
        g.set(10)
        g.set(13)
        assert g.value == 13


class TestHistogram:
    def test_boundary_is_inclusive(self):
        """A sample equal to a bucket upper bound lands IN that bucket
        (Prometheus ``le`` semantics)."""
        h = Histogram("h", buckets=(10, 20))
        h.observe(10)
        assert h.counts == [1, 0, 0]

    def test_just_above_boundary_goes_up(self):
        h = Histogram("h", buckets=(10, 20))
        h.observe(11)
        assert h.counts == [0, 1, 0]

    def test_overflow_bucket(self):
        h = Histogram("h", buckets=(10, 20))
        h.observe(21)
        h.observe(10_000)
        assert h.counts == [0, 0, 2]

    def test_stats(self):
        h = Histogram("h", buckets=(100,))
        for v in (5, 10, 30):
            h.observe(v)
        assert h.count == 3
        assert h.sum == 45
        assert (h.min, h.max) == (5, 30)
        assert h.mean == pytest.approx(15.0)

    def test_empty_stats(self):
        h = Histogram("h", buckets=(1,))
        assert h.count == 0 and h.mean == 0.0

    def test_buckets_must_be_sorted(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=(20, 10))
        with pytest.raises(ValueError):
            Histogram("h", buckets=())


class TestHistogramPercentile:
    def test_empty_returns_none(self):
        h = Histogram("h", buckets=(10, 20))
        assert h.percentile(0.5) is None
        assert h.percentile(0.99) is None

    def test_out_of_range_q_raises(self):
        h = Histogram("h", buckets=(10,))
        h.observe(5)
        with pytest.raises(ValueError):
            h.percentile(-0.1)
        with pytest.raises(ValueError):
            h.percentile(1.1)

    def test_single_sample_returns_that_sample(self):
        """Clamping to [min, max] makes any quantile of a one-sample
        histogram exactly that sample, not a bucket bound."""
        h = Histogram("h", buckets=(100, 200))
        h.observe(7)
        for q in (0.0, 0.5, 0.9, 0.99, 1.0):
            assert h.percentile(q) == 7.0

    def test_overflow_bucket_returns_max(self):
        """A rank landing in the +Inf overflow bucket cannot be resolved
        beyond the last bound: the documented value is the observed max."""
        h = Histogram("h", buckets=(10,))
        h.observe(5)
        h.observe(5_000)
        assert h.percentile(0.99) == 5_000.0

    def test_bucket_estimate_is_clamped_bound(self):
        h = Histogram("h", buckets=(10, 20, 50))
        for v in (3, 4, 12, 13):
            h.observe(v)
        # p50 rank 2 -> first bucket, bound 10 clamped into [3, 13].
        assert h.percentile(0.5) == 10.0
        # p99 rank 4 -> second bucket, bound 20 clamped to max=13.
        assert h.percentile(0.99) == 13.0

    def test_q_zero_returns_min(self):
        h = Histogram("h", buckets=(10,))
        h.observe(4)
        h.observe(9)
        assert h.percentile(0.0) == 4.0


class TestRender:
    def test_render_contains_all_series(self):
        r = MetricsRegistry()
        r.counter("kernel.vm_switches").inc(3)
        r.counter("kernel.hypercalls", hc="YIELD").inc()
        r.gauge("runq.depth").set(2)
        r.histogram("lat", buckets=(10, 20)).observe(15)
        out = r.render()
        assert "counter   kernel.vm_switches = 3" in out
        assert "kernel.hypercalls{hc=YIELD} = 1" in out
        assert "gauge" in out and "runq.depth" in out
        assert "histogram lat" in out and "le=20: 1" in out

    def test_as_dict_round_trip(self):
        r = MetricsRegistry()
        r.counter("c", vm=1).inc(7)
        r.histogram("h").observe(3)
        d = r.as_dict()
        assert d["c{vm=1}"] == 7
        assert d["h"]["count"] == 1
