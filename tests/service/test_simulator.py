"""Unit tests for repro.service.simulator."""

from __future__ import annotations

import pytest

from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.core.system import OpaqueSystem
from repro.exceptions import ExperimentError
from repro.network.generators import grid_network
from repro.search.dijkstra import dijkstra_path
from repro.service.simulator import (
    BatchingObfuscationService,
    TimedRequest,
    poisson_arrivals,
)


@pytest.fixture(scope="module")
def net():
    return grid_network(15, 15, perturbation=0.1, seed=601)


def request(user, s, t, f=3):
    return ClientRequest(user, PathQuery(s, t), ProtectionSetting(f, f))


class TestTimedRequest:
    def test_negative_arrival_rejected(self):
        with pytest.raises(ExperimentError):
            TimedRequest(-1.0, request("a", 0, 5))


class TestPoissonArrivals:
    def test_monotone_and_deterministic(self, net):
        requests = [request(f"u{i}", i, 100 + i) for i in range(10)]
        a = poisson_arrivals(requests, rate=3.0, seed=4)
        b = poisson_arrivals(requests, rate=3.0, seed=4)
        times = [t.arrival_time for t in a]
        assert times == sorted(times)
        assert [t.arrival_time for t in b] == times
        assert [t.request.user for t in a] == [r.user for r in requests]

    def test_rate_scales_density(self, net):
        requests = [request(f"u{i}", i, 100 + i) for i in range(50)]
        slow = poisson_arrivals(requests, rate=0.5, seed=4)[-1].arrival_time
        fast = poisson_arrivals(requests, rate=50.0, seed=4)[-1].arrival_time
        assert fast < slow

    def test_invalid_rate(self):
        with pytest.raises(ExperimentError):
            poisson_arrivals([], rate=0.0)


class TestBatchingService:
    def test_every_user_gets_exact_path(self, net):
        system = OpaqueSystem(net, mode="shared", seed=2)
        service = BatchingObfuscationService(system, window=1.0)
        requests = [request(f"u{i}", i, 150 + i) for i in range(6)]
        arrivals = poisson_arrivals(requests, rate=4.0, seed=2)
        results, report = service.run(arrivals)
        for req in requests:
            truth = dijkstra_path(net, req.query.source, req.query.destination)
            assert results[req.user].distance == pytest.approx(truth.distance)
        assert set(report.latencies_by_user) == {r.user for r in requests}

    def test_latency_bounded_by_window(self, net):
        system = OpaqueSystem(net, mode="shared", seed=2)
        service = BatchingObfuscationService(system, window=2.0)
        requests = [request(f"u{i}", i, 150 + i) for i in range(8)]
        arrivals = poisson_arrivals(requests, rate=3.0, seed=3)
        _results, report = service.run(arrivals)
        for latency in report.latencies_by_user.values():
            assert 0.0 < latency <= 2.0 + 1e-9

    def test_single_arrival_per_window_degenerates_to_independent_batches(self, net):
        system = OpaqueSystem(net, mode="shared", seed=2)
        service = BatchingObfuscationService(system, window=0.001)
        requests = [request(f"u{i}", i, 150 + i) for i in range(4)]
        # Arrivals far apart relative to the window: one request per batch.
        arrivals = [
            TimedRequest(float(i), requests[i]) for i in range(4)
        ]
        _results, report = service.run(arrivals)
        assert report.windows_processed == 4

    def test_wide_window_batches_everything(self, net):
        system = OpaqueSystem(net, mode="shared", seed=2)
        service = BatchingObfuscationService(system, window=100.0)
        requests = [request(f"u{i}", i, 150 + i) for i in range(6)]
        arrivals = poisson_arrivals(requests, rate=5.0, seed=5)
        _results, report = service.run(arrivals)
        assert report.windows_processed == 1
        assert report.obfuscated_queries == 1  # one shared query

    def test_wider_window_improves_privacy(self, net):
        requests = [request(f"u{i}", i, 150 + i) for i in range(10)]
        breaches = []
        for window in (0.1, 50.0):
            system = OpaqueSystem(net, mode="shared", seed=2)
            service = BatchingObfuscationService(system, window=window)
            arrivals = poisson_arrivals(requests, rate=2.0, seed=6)
            _results, report = service.run(arrivals)
            breaches.append(report.mean_breach)
        assert breaches[1] < breaches[0]

    def test_service_time_adds_to_latency(self, net):
        requests = [request("only", 0, 150)]
        arrivals = [TimedRequest(0.5, requests[0])]
        base_system = OpaqueSystem(net, mode="shared", seed=2)
        free = BatchingObfuscationService(base_system, window=1.0)
        _r, report_free = free.run(arrivals)
        slow_system = OpaqueSystem(net, mode="shared", seed=2)
        slow = BatchingObfuscationService(
            slow_system, window=1.0, service_time_per_settled_node=0.01
        )
        _r, report_slow = slow.run(arrivals)
        assert report_slow.mean_latency > report_free.mean_latency

    def test_duplicate_users_rejected(self, net):
        system = OpaqueSystem(net, mode="shared", seed=2)
        service = BatchingObfuscationService(system, window=1.0)
        arrivals = [
            TimedRequest(0.1, request("same", 0, 150)),
            TimedRequest(0.2, request("same", 1, 151)),
        ]
        with pytest.raises(ExperimentError):
            service.run(arrivals)

    def test_invalid_configuration(self, net):
        system = OpaqueSystem(net, seed=2)
        with pytest.raises(ExperimentError):
            BatchingObfuscationService(system, window=0.0)
        with pytest.raises(ExperimentError):
            BatchingObfuscationService(system, window=1.0,
                                       service_time_per_settled_node=-1.0)

    def test_empty_stream(self, net):
        system = OpaqueSystem(net, mode="shared", seed=2)
        service = BatchingObfuscationService(system, window=1.0)
        results, report = service.run([])
        assert results == {}
        assert report.windows_processed == 0
        assert report.mean_latency == 0.0
        assert report.p95_latency == 0.0
        assert report.mean_breach == 1.0


class TestE10Experiment:
    def test_shapes(self):
        from repro.experiments import e10_batching_window

        config = e10_batching_window.Config(
            grid_width=15, grid_height=15, num_requests=12,
            windows=[0.5, 8.0],
        )
        result = e10_batching_window.run(config)
        first, last = result.rows[0], result.rows[-1]
        assert last["mean_latency_s"] > first["mean_latency_s"]
        assert last["mean_breach"] <= first["mean_breach"]
        assert last["settled_cold"] <= first["settled_cold"]
        assert last["obfuscated_queries"] <= first["obfuscated_queries"]
        for row in result.rows:
            # Cross-session coalescing never costs more than one batch
            # per query.  A window marks either every query coalesced
            # (>= 2 distinct queries shared a pass) or none (a lone
            # query, or all-identical duplicates of one).
            assert row["settled_coalesced"] <= row["settled_solo"]
            assert row["coalesced_queries"] in (0, row["obfuscated_queries"])
            if row["obfuscated_queries"] < 2:
                assert row["coalesced_queries"] == 0
