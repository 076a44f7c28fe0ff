"""Tests for the metrics registry."""

from __future__ import annotations

import json
import threading

import pytest

from repro.obs.metrics import Counter, Gauge, Histogram, MetricsRegistry


class TestCounter:
    def test_increments_merge(self):
        counter = Counter("repro_test_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_integer_increments_stay_integers(self):
        counter = Counter("repro_test_total")
        counter.inc(2)
        assert counter.value == 2
        assert isinstance(counter.value, int)

    def test_negative_increment_rejected(self):
        counter = Counter("repro_test_total")
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_reset(self):
        counter = Counter("repro_test_total")
        counter.inc(7)
        counter.reset()
        assert counter.value == 0

    def test_invalid_name_rejected(self):
        with pytest.raises(ValueError):
            Counter("has spaces")
        with pytest.raises(ValueError):
            Counter("has-dashes")


class TestGauge:
    def test_set_and_inc(self):
        gauge = Gauge("repro_test_gauge")
        assert gauge.value == 0
        gauge.set(3.5)
        assert gauge.value == 3.5
        gauge.inc(-1.5)
        assert gauge.value == 2.0

    def test_set_max_keeps_maximum(self):
        gauge = Gauge("repro_test_gauge")
        gauge.set_max(4)
        gauge.set_max(2)
        assert gauge.value == 4
        gauge.set_max(9)
        assert gauge.value == 9


class TestHistogram:
    def test_observations_and_cumulative_buckets(self):
        hist = Histogram("repro_test_seconds", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(105.0)
        assert hist.bucket_counts() == [
            (1.0, 1),
            (2.0, 2),
            (4.0, 3),
            (float("inf"), 4),
        ]

    def test_bad_buckets_rejected(self):
        with pytest.raises(ValueError):
            Histogram("repro_test_seconds", buckets=())
        with pytest.raises(ValueError):
            Histogram("repro_test_seconds", buckets=(2.0, 1.0))

    def test_quantile_reports_bucket_upper_bounds(self):
        hist = Histogram("repro_test_seconds", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 3.5):
            hist.observe(value)
        assert hist.quantile(0.0) == 1.0  # rank clamps to the first sample
        assert hist.quantile(0.25) == 1.0
        assert hist.quantile(0.5) == 2.0
        assert hist.quantile(1.0) == 4.0

    def test_quantile_clamps_overflow_to_last_finite_bound(self):
        hist = Histogram("repro_test_seconds", buckets=(1.0, 2.0))
        hist.observe(50.0)  # lands in the +Inf bucket
        assert hist.quantile(0.99) == 2.0

    def test_quantile_empty_and_invalid(self):
        hist = Histogram("repro_test_seconds", buckets=(1.0,))
        assert hist.quantile(0.5) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        a = registry.counter("repro_a_total")
        b = registry.counter("repro_a_total")
        assert a is b
        assert "repro_a_total" in registry
        assert "repro_b_total" not in registry

    def test_kind_mismatch_rejected(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total")
        with pytest.raises(ValueError):
            registry.gauge("repro_a_total")
        with pytest.raises(ValueError):
            registry.histogram("repro_a_total")

    def test_reset_zeroes_but_keeps_instruments(self):
        registry = MetricsRegistry()
        counter = registry.counter("repro_a_total")
        counter.inc(3)
        registry.reset()
        assert registry.counter("repro_a_total") is counter
        assert counter.value == 0

    def test_json_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", desc="a counter").inc(2)
        registry.gauge("repro_g").set(1.5)
        registry.histogram("repro_h_seconds", buckets=(1.0,)).observe(0.5)
        doc = json.loads(registry.to_json())
        assert doc["schema"] == 1
        metrics = doc["metrics"]
        assert metrics["repro_a_total"] == {
            "type": "counter", "value": 2, "desc": "a counter",
        }
        assert metrics["repro_g"]["value"] == 1.5
        hist = metrics["repro_h_seconds"]
        assert hist["count"] == 1
        assert hist["buckets"][-1][0] == "+Inf"

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("repro_a_total", desc="a counter").inc(2)
        registry.histogram("repro_h_seconds", buckets=(1.0,)).observe(0.5)
        text = registry.to_prometheus()
        assert "# HELP repro_a_total a counter" in text
        assert "# TYPE repro_a_total counter" in text
        assert "repro_a_total 2" in text
        assert 'repro_h_seconds_bucket{le="1.0"} 1' in text
        assert 'repro_h_seconds_bucket{le="+Inf"} 1' in text
        assert "repro_h_seconds_count 1" in text


class TestThreadExactness:
    """Instruments stay exact, and snapshots consistent, under contention."""

    def test_counter_exact_across_raw_threads(self):
        counter = Counter("repro_test_total")
        per_thread, n_threads = 10_000, 8
        barrier = threading.Barrier(n_threads)

        def work():
            barrier.wait()
            for _ in range(per_thread):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == per_thread * n_threads

    def test_histogram_exact_under_dispatcher_load(self, small_grid):
        """A histogram counts exactly when four threads evaluate through
        one :class:`~repro.service.serving.ConcurrentDispatcher`, each on
        its own engine handle."""
        from repro.search import get_engine
        from repro.service.serving import ConcurrentDispatcher

        hist = Histogram("repro_test_settled", buckets=(10.0, 100.0, 1000.0))

        class ObservingHandle:
            """Engine handle that observes each result's settled count."""

            def __init__(self):
                self._inner = get_engine("dijkstra").make_processor()

            def process(self, network, sources, destinations):
                result = self._inner.process(network, sources, destinations)
                hist.observe(result.stats.settled_nodes)
                return result

        import random

        from repro.core.query import ObfuscatedPathQuery

        nodes = sorted(small_grid.nodes())
        rng = random.Random(3)
        queries = [
            ObfuscatedPathQuery(
                tuple(rng.sample(nodes, 3)), tuple(rng.sample(nodes, 3))
            )
            for _ in range(12)
        ]
        dispatcher = ConcurrentDispatcher(ObservingHandle)
        results = [None] * len(queries)

        def work(offset):
            for i in range(offset, len(queries), 4):
                q = queries[i]
                (results[i],) = dispatcher.evaluate(
                    small_grid, [(q.sources, q.destinations)]
                )

        threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
            assert not t.is_alive()
        expected = [r.stats.settled_nodes for r in results]
        assert hist.count == len(queries)
        assert hist.sum == sum(expected)
        # Cumulative bucket counts agree with a serial recount.
        for bound, merged_count in hist.bucket_counts():
            assert merged_count == sum(1 for v in expected if v <= bound)

    def test_collect_snapshots_are_consistent_under_writes(self):
        """``collect`` reads a histogram's count, sum and buckets in one
        snapshot: the exported ``count`` always equals the ``+Inf``
        bucket, however many observations land between the reads."""
        registry = MetricsRegistry()
        hist = registry.histogram("repro_test_seconds", buckets=(1.0, 2.0))
        stop = threading.Event()

        def work():
            while not stop.is_set():
                for value in (0.5, 1.5, 2.5):
                    hist.observe(value)

        writers = [threading.Thread(target=work) for _ in range(3)]
        for t in writers:
            t.start()
        try:
            snapshots = [
                registry.collect()["repro_test_seconds"] for _ in range(2000)
            ]
        finally:
            stop.set()
            for t in writers:
                t.join(timeout=30)
        assert snapshots[-1]["count"] > 0
        for doc in snapshots:
            assert doc["count"] == doc["buckets"][-1][1]
