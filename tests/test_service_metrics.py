"""Tests for the service counters and latency histograms."""

from __future__ import annotations

import threading

import pytest

from repro.service.metrics import Counter, Gauge, LatencyHistogram, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        counter = Counter()
        assert counter.value == 0
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter().inc(-1)

    def test_concurrent_increments_are_not_lost(self):
        counter = Counter()

        def worker() -> None:
            for _ in range(1000):
                counter.inc()

        threads = [threading.Thread(target=worker) for _ in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert counter.value == 8000


class TestGauge:
    def test_starts_at_zero_and_sets(self):
        gauge = Gauge()
        assert gauge.value == 0
        gauge.set(42)
        assert gauge.value == 42
        gauge.set(3.5)
        assert gauge.value == 3.5
        gauge.set(7)  # set-to-current, not accumulated
        assert gauge.value == 7

    def test_non_numeric_values_rejected(self):
        with pytest.raises(ValueError):
            Gauge().set("big")
        with pytest.raises(ValueError):
            Gauge().set(True)

    def test_concurrent_sets_keep_a_written_value(self):
        gauge = Gauge()

        def worker(value: int) -> None:
            for _ in range(500):
                gauge.set(value)

        threads = [threading.Thread(target=worker, args=(value,)) for value in (1, 2, 3)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert gauge.value in (1, 2, 3)


class TestLatencyHistogram:
    def test_count_sum_and_mean(self):
        histogram = LatencyHistogram()
        for value in (0.001, 0.002, 0.003):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.sum == pytest.approx(0.006)
        assert histogram.mean() == pytest.approx(0.002)

    def test_quantiles_are_ordered_and_bounded(self):
        histogram = LatencyHistogram()
        for index in range(100):
            histogram.observe(0.0001 * (index + 1))  # 0.1ms .. 10ms
        p50 = histogram.quantile(0.50)
        p95 = histogram.quantile(0.95)
        assert 0 < p50 <= p95 <= 0.01 + 1e-9
        # p50 of a uniform 0.1..10ms spread is around 5ms (bucket resolution)
        assert 0.002 <= p50 <= 0.01

    def test_empty_histogram_quantile_is_zero(self):
        assert LatencyHistogram().quantile(0.95) == 0.0

    def test_invalid_quantile_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(-0.1)
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(1.5)
        with pytest.raises(ValueError):
            LatencyHistogram().quantile("p95")
        with pytest.raises(ValueError):
            LatencyHistogram().quantile(True)

    def test_quantile_edges_are_defined(self):
        empty = LatencyHistogram()
        assert empty.quantile(0.0) == 0.0
        assert empty.quantile(1.0) == 0.0
        histogram = LatencyHistogram()
        histogram.observe(0.004)
        # q=0 has no smaller observation; q=1 is the maximum observed
        assert histogram.quantile(0.0) == 0.0
        assert histogram.quantile(1.0) == pytest.approx(0.004)

    def test_single_observation_quantiles_bounded_by_max(self):
        histogram = LatencyHistogram()
        histogram.observe(0.0042)
        for q in (0.1, 0.5, 0.95, 0.99, 1.0):
            assert 0.0 < histogram.quantile(q) <= 0.0042 + 1e-12

    def test_invalid_buckets_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=())
        with pytest.raises(ValueError):
            LatencyHistogram(buckets=(0.5, 0.1))

    def test_snapshot_shape(self):
        histogram = LatencyHistogram()
        histogram.observe(0.004)
        snapshot = histogram.snapshot()
        assert snapshot["count"] == 1
        assert snapshot["sum_s"] == pytest.approx(0.004)
        assert {"p50_s", "p95_s", "p99_s", "mean_s", "max_s"} <= set(snapshot)

    def test_overflow_bucket_caps_at_observed_max(self):
        histogram = LatencyHistogram()
        histogram.observe(30.0)  # beyond the last bound
        assert histogram.quantile(1.0) == pytest.approx(30.0)


class TestMetricsRegistry:
    def test_instruments_are_created_on_first_use(self):
        registry = MetricsRegistry()
        registry.counter("requests").inc(3)
        assert registry.counter("requests").value == 3
        registry.histogram("latency").observe(0.001)
        assert registry.histogram("latency").count == 1

    def test_snapshot_renders_everything(self):
        registry = MetricsRegistry()
        registry.counter("a").inc()
        registry.gauge("g").set(12)
        registry.histogram("b").observe(0.5)
        snapshot = registry.snapshot()
        assert snapshot["counters"] == {"a": 1}
        assert snapshot["gauges"] == {"g": 12}
        assert snapshot["histograms"]["b"]["count"] == 1

    def test_gauges_are_created_on_first_use(self):
        registry = MetricsRegistry()
        registry.gauge("kb.entities").set(5)
        assert registry.gauge("kb.entities").value == 5


class TestEngineKbGauges:
    """The serving engine publishes KB/compiled-core gauges via /metrics."""

    def test_gauges_populated_after_first_explain(self):
        """The KB is compiled at boot, so the gauges are set before any read
        and the first read compiles nothing."""
        from repro.datasets.paper_example import paper_example_kb
        from repro.service import ExplanationEngine

        engine = ExplanationEngine(paper_example_kb(), size_limit=4)
        try:
            gauges = engine.metrics.snapshot()["gauges"]
            assert gauges["kb.entities"] == engine.kb.num_entities
            assert gauges["kb.edges"] == engine.kb.num_edges
            assert gauges["kb.labels"] == len(engine.kb.relation_labels())
            assert gauges["kb.compiled_plane_bytes"] > 0
            assert gauges["kb.compile_seconds"] > 0
            assert "kb.compiled_versions_cached" not in gauges
            engine.explain("tom_cruise", "nicole_kidman", k=1)
            counters = engine.metrics.snapshot()["counters"]
            assert counters["engine.kb_compiles"] == 1
        finally:
            engine.close()

    def test_kb_update_extends_compile_instead_of_dropping_it(self):
        """A write no longer nukes the compiled view: the previous version's
        compile is extended with an overlay delta, so the next read pays no
        recompile and the gauges reflect the grown KB."""
        from repro.datasets.paper_example import paper_example_kb
        from repro.service import ExplanationEngine

        engine = ExplanationEngine(paper_example_kb(), size_limit=4)
        try:
            engine.explain("tom_cruise", "nicole_kidman", k=1)
            engine.add_edges(
                [{"source": "tom_cruise", "target": "top_gun_x", "label": "starring"}]
            )
            snapshot = engine.metrics.snapshot()
            assert snapshot["gauges"]["kb.overlay_edges"] == 1
            assert snapshot["gauges"]["kb.entities"] == engine.kb.num_entities
            assert snapshot["gauges"]["kb.edges"] == engine.kb.num_edges
            assert snapshot["counters"]["engine.delta_merges"] == 1
            engine.explain("tom_cruise", "nicole_kidman", k=1)
            snapshot = engine.metrics.snapshot()
            assert snapshot["counters"]["engine.kb_compiles"] == 1
        finally:
            engine.close()

    def test_kb_update_without_prior_compile_still_serves(self):
        """A write before any read extends the view compiled at boot, so no
        read pays a compile."""
        from repro.datasets.paper_example import paper_example_kb
        from repro.service import ExplanationEngine

        engine = ExplanationEngine(paper_example_kb(), size_limit=4)
        try:
            engine.add_edges(
                [{"source": "tom_cruise", "target": "top_gun_x", "label": "starring"}]
            )
            snapshot = engine.metrics.snapshot()
            assert snapshot["counters"]["engine.delta_merges"] == 1
            assert snapshot["gauges"]["kb.overlay_edges"] == 1
            engine.explain("tom_cruise", "nicole_kidman", k=1)
            snapshot = engine.metrics.snapshot()
            assert snapshot["counters"]["engine.kb_compiles"] == 1
        finally:
            engine.close()
