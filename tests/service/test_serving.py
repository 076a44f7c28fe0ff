"""Tests for the concurrent serving stack."""

from __future__ import annotations

import threading

import pytest

from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import (
    ClientRequest,
    ObfuscatedPathQuery,
    PathQuery,
    ProtectionSetting,
)
from repro.core.server import DirectionsServer
from repro.core.system import OpaqueSystem
from repro.exceptions import ReproError, UnknownNodeError
from repro.service.cache import PreprocessingCache, ResultCache
from repro.service.serving import (
    ConcurrentDispatcher,
    ServingConfig,
    ServingStack,
    replay,
)


def _requests(n=6, offset=40):
    return [
        ClientRequest(f"u{i}", PathQuery(i, offset + i), ProtectionSetting(3, 3))
        for i in range(n)
    ]


def _queries(network, n=6, seed=5, mode="independent", offset=40):
    obfuscator = PathQueryObfuscator(network, seed=seed)
    records = obfuscator.obfuscate_batch(_requests(n, offset), mode=mode)
    return [record.query for record in records]


class TestServingStack:
    def test_cold_then_warm_batches(self, small_grid):
        queries = _queries(small_grid)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        ) as stack:
            cold = stack.answer_batch(queries)
            warm = stack.answer_batch(queries)
        assert all(not r.from_cache for r in cold)
        assert all(r.from_cache for r in warm)
        for a, b in zip(cold, warm):
            assert a.candidates.paths == b.candidates.paths
        snap = stack.snapshot()
        assert snap.result_hits == len(queries)
        assert snap.result_misses == len(queries)

    def test_server_accounting_includes_cache_hits(self, small_grid):
        queries = _queries(small_grid, n=4)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        ) as stack:
            stack.answer_batch(queries)
            settled_after_cold = stack.server.counters.stats.settled_nodes
            stack.answer_batch(queries)
        # The adversary's view and load counters see every query...
        assert len(stack.server.observed_queries) == 2 * len(queries)
        assert stack.server.counters.queries_served == 2 * len(queries)
        # ...but cached responses add no search work.
        assert stack.server.counters.stats.settled_nodes == settled_after_cold

    @pytest.mark.parametrize("batched", [False, True], ids=["process", "union"])
    def test_failed_queries_are_observed_in_submission_order(
        self, small_grid, batched
    ):
        """The stack's adversary view is the plain server's: a query
        that fails (an unknown node) is observed where it was submitted,
        and only the answered ones count as served."""
        good = _queries(small_grid, n=3)
        bad = ObfuscatedPathQuery((10**9,), good[0].destinations)
        queries = [good[0], bad, good[1], good[2]]
        with ServingStack.from_config(small_grid) as stack:
            if batched:
                outcomes = stack.answer_each(queries)
            else:
                outcomes = [stack.answer_each([q])[0] for q in queries]
            assert isinstance(outcomes[1], UnknownNodeError)
            assert list(stack.server.observed_queries) == queries
            assert stack.server.counters.queries_served == 3
            # answer_batch raises, after observing the failing query
            with pytest.raises(UnknownNodeError):
                stack.answer_batch([bad])
            assert list(stack.server.observed_queries) == queries + [bad]
            assert stack.server.counters.queries_served == 3
        plain = DirectionsServer(small_grid)
        for query in queries:
            try:
                plain.answer(query)
            except ReproError:
                pass
        assert list(plain.observed_queries) == queries
        assert plain.counters.queries_served == 3

    def test_answer_cached_is_the_hit_half_of_answer(self, small_grid):
        (query,) = _queries(small_grid, n=1)
        with ServingStack.from_config(
            small_grid.copy(), ServingConfig(engine="dijkstra")
        ) as stack:
            assert stack.answer_cached(query) is None  # cold: not ours
            assert stack.snapshot().result_misses == 0
            assert stack.server.counters.queries_served == 0
            cold = stack.answer(query)
            response, fragment = stack.answer_cached(query)
            assert response.from_cache and not response.coalesced
            assert response.candidates is cold.candidates
            assert fragment.startswith(b'"paths":[[')
            assert list(stack.server.observed_queries) == [query, query]
            assert stack.server.counters.queries_served == 2
            snap = stack.snapshot()
            assert (snap.result_hits, snap.result_misses) == (1, 1)
            u, v, w = next(iter(stack.network.edges()))
            stack.reweight([(u, v, w * 2.0)], epoch=True)
            assert stack.answer_cached(query) is None  # new epoch, new key

    def test_concurrent_matches_serial(self, small_grid):
        """Four threads answering through one stack (each on its own
        engine handle) get the tables one serial batch per query gets."""
        queries = _queries(small_grid, n=8)

        def tables(responses):
            return [
                {k: (p.nodes, p.distance) for k, p in r.candidates.paths.items()}
                for r in responses
            ]

        with ServingStack.from_config(
            small_grid, ServingConfig(engine="dijkstra")
        ) as stack:
            serial = tables(stack.answer_batch([q])[0] for q in queries)
        responses = [None] * len(queries)
        with ServingStack.from_config(
            small_grid, ServingConfig(engine="dijkstra")
        ) as stack:

            def work(offset):
                for i in range(offset, len(queries), 4):
                    (responses[i],) = stack.answer_batch([queries[i]])

            threads = [
                threading.Thread(target=work, args=(k,)) for k in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
                assert not t.is_alive()
        assert tables(responses) == serial

    def test_preprocessed_engine_shares_artifact(self, small_grid):
        pre = PreprocessingCache()
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="ch"),
            preprocessing_cache=pre,
        ) as stack:
            stack.answer_batch(_queries(small_grid, n=4))
        # One contraction total.
        assert pre.misses == 1

    def test_empty_batch(self, small_grid):
        with ServingStack.from_config(small_grid) as stack:
            assert stack.answer_batch([]) == []

    def test_single_query_answer(self, small_grid):
        query = _queries(small_grid, n=1)[0]
        with ServingStack.from_config(small_grid) as stack:
            response = stack.answer(query)
            assert response.query is query
            assert stack.answer(query).from_cache

    def test_warm_builds_artifact_once(self, small_grid):
        with ServingStack.from_config(small_grid, ServingConfig(engine="ch")) as stack:
            first = stack.warm()
            assert stack.warm() is first
            assert stack.preprocessing.misses == 1

    def test_duplicate_queries_in_batch_share_one_evaluation(self, small_grid):
        query = _queries(small_grid, n=1)[0]
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        ) as stack:
            responses = stack.answer_batch([query, query, query])
            settled = stack.server.counters.stats.settled_nodes
        assert [r.from_cache for r in responses] == [False, True, True]
        assert responses[0].candidates is responses[2].candidates
        # Counters agree with the from_cache flags: 1 miss, 2 shared hits.
        assert (stack.results.hits, stack.results.misses) == (2, 1)
        # One search's worth of work, not three.
        single = ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        )
        single.answer_batch([query])
        assert settled == single.server.counters.stats.settled_nodes
        single.close()

    def test_shared_result_cache_isolates_networks(self, small_grid, tiger_net):
        """One ResultCache shared by stacks over different networks must
        never serve a table across networks (keys carry the fingerprint)."""
        from repro.service.cache import ResultCache

        shared = ResultCache(capacity=64)
        # Both networks contain node ids 0..47, so (S, T) keys collide.
        queries = _queries(small_grid, n=3, offset=30)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
            result_cache=shared,
        ) as stack_a:
            responses_a = stack_a.answer_batch(queries)
        with ServingStack.from_config(
            tiger_net,
            ServingConfig(engine="dijkstra"),
            result_cache=shared,
        ) as stack_b:
            responses_b = stack_b.answer_batch(queries)
        assert all(not r.from_cache for r in responses_b)
        for a, b in zip(responses_a, responses_b):
            assert a.candidates is not b.candidates

    def test_network_mutation_invalidates_results(self, small_grid):
        net = small_grid.copy()
        queries = _queries(net, n=2)
        with ServingStack.from_config(net, ServingConfig(engine="dijkstra")) as stack:
            stack.answer_batch(queries)
            net.add_edge(0, 33, 0.001)  # new shortcut changes shortest paths
            responses = stack.answer_batch(queries)
        assert all(not r.from_cache for r in responses)

    def test_fingerprint_memoized_until_mutation(self, small_grid):
        net = small_grid.copy()
        with ServingStack.from_config(net, ServingConfig(engine="dijkstra")) as stack:
            first = stack._fingerprint()
            assert stack._fingerprint() is first  # memo hit, not a rehash
            net.add_edge(0, 33, 0.5)
            assert stack._fingerprint() != first
            net.remove_edge(0, 33)
            # Content round-trips even though the version kept rising.
            assert stack._fingerprint() == first


class TestOpaqueSystemIntegration:
    def test_serving_is_exclusive_with_engine(self, small_grid):
        stack = ServingStack.from_config(small_grid)
        with pytest.raises(ValueError):
            OpaqueSystem(small_grid, serving=stack, engine="ch")
        stack.close()

    def test_serving_requires_same_network(self, small_grid, tiger_net):
        stack = ServingStack.from_config(small_grid)
        with pytest.raises(ValueError):
            OpaqueSystem(tiger_net, serving=stack)
        stack.close()

    def test_results_identical_with_and_without_stack(self, small_grid):
        requests = _requests()
        plain = OpaqueSystem(small_grid, mode="independent", seed=1)
        expected = plain.submit(requests)

        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        ) as stack:
            system = OpaqueSystem(
                small_grid, mode="independent", serving=stack, seed=1
            )
            cached = system.submit(requests)
        assert {u: p.nodes for u, p in cached.items()} == {
            u: p.nodes for u, p in expected.items()
        }

    def test_session_report_surfaces_cache_counters(self, small_grid):
        requests = _requests()
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        ) as stack:
            first = OpaqueSystem(
                small_grid, mode="independent", serving=stack, seed=1
            )
            first.submit(requests)
            report1 = first.last_report
            second = OpaqueSystem(
                small_grid, mode="independent", serving=stack, seed=1
            )
            second.submit(requests)
            report2 = second.last_report
        assert report1.cached_queries == 0
        assert report1.serving_caches.result_misses == len(requests)
        assert report2.cached_queries == len(requests)
        assert report2.serving_caches.result_hits == len(requests)
        # The warm session did zero search work.
        assert report2.server_stats.settled_nodes == 0

    def test_shared_mode_through_stack(self, small_grid):
        requests = _requests()
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        ) as stack:
            system = OpaqueSystem(
                small_grid, mode="shared", serving=stack, seed=2
            )
            results = system.submit(requests)
        assert set(results) == {r.user for r in requests}


class TestReplay:
    def test_replay_latencies_and_hit_rate(self, small_grid):
        queries = _queries(small_grid, n=5)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        ) as stack:
            report = replay(stack, queries, repeats=3, batch_size=2)
        assert report.queries == 15
        assert len(report.latencies) == 15
        assert report.p50_latency <= report.p95_latency <= report.p99_latency
        assert report.cache.result_hits == 10
        assert report.cache.result_misses == 5

    def test_replay_validates_arguments(self, small_grid):
        with ServingStack.from_config(small_grid) as stack:
            with pytest.raises(ValueError):
                replay(stack, [], repeats=0)
            with pytest.raises(ValueError):
                replay(stack, [], batch_size=0)

    def test_mixed_stream_serves_and_installs_in_order(self, small_grid):
        """A traffic event flushes the open batch, and each run of
        consecutive events installs as one epoch."""
        from repro.search.dijkstra import dijkstra_path
        from repro.workloads.replay import TrafficEvent

        (u, v, w), (x, y, z) = list(small_grid.edges())[:2]
        q = _queries(small_grid, n=3)
        items = [
            q[0], q[1],
            TrafficEvent(u, v, w * 2.5), TrafficEvent(x, y, z * 3.0),
            q[2],
        ]
        with ServingStack.from_config(
            small_grid, ServingConfig(engine="dijkstra-csr")
        ) as stack:
            stack.warm()
            report = replay(stack, items, repeats=2, batch_size=2)
            assert report.queries == 6
            assert len(report.latencies) == 6
            assert stack.epoch == 2  # one epoch per run, per pass
            assert stack.network.edge_weight(u, v) == w * 2.5
            assert stack.network.edge_weight(x, y) == z * 3.0
            assert small_grid.edge_weight(u, v) == w
            response = stack.answer(q[2])
            for (s, t), path in response.candidates.paths.items():
                ref = dijkstra_path(stack.network, s, t).distance
                assert path.distance == pytest.approx(ref, abs=1e-9)

    def test_replay_with_injected_clock_is_deterministic(self, small_grid):
        # A stepping fake clock makes every latency exactly one tick, so
        # the report is assertable down to the numbers instead of "is
        # positive".
        ticks = iter(range(1000))
        clock = lambda: float(next(ticks))  # noqa: E731
        queries = _queries(small_grid, n=4)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        ) as stack:
            report = replay(
                stack, queries, repeats=2, batch_size=2, clock=clock
            )
        # Each batch reads the clock twice (t0, t1) -> latency 1.0; four
        # batches total, every member charged its batch's completion.
        assert report.latencies == [1.0] * 8
        # start read + 2 reads per batch + final read = 10 ticks.
        assert report.total_seconds == 9.0

    def test_report_percentile_agrees_with_stats_module(self):
        # ReplayReport.percentile must stay a thin delegate of
        # service.stats.percentile — one quantile definition repo-wide.
        from repro.service.serving import ReplayReport
        from repro.service.stats import percentile

        latencies = [0.5, 0.1, 0.9, 0.3, 0.7, 0.2]
        report = ReplayReport(latencies=list(latencies))
        for q in (0.0, 0.25, 0.5, 0.75, 0.95, 1.0):
            assert report.percentile(q) == percentile(sorted(latencies), q)
        assert report.p50_latency == percentile(sorted(latencies), 0.50)
        assert report.p95_latency == percentile(sorted(latencies), 0.95)

    def test_batching_service_reports_cache_counters(self, small_grid):
        from repro.service.simulator import (
            BatchingObfuscationService,
            poisson_arrivals,
        )

        requests = _requests()
        arrivals = poisson_arrivals(requests, rate=4.0, seed=0)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        ) as stack:
            cold_system = OpaqueSystem(
                small_grid, mode="shared", serving=stack, seed=3
            )
            _res, cold = BatchingObfuscationService(
                cold_system, window=1.0
            ).run(arrivals)
            warm_system = OpaqueSystem(
                small_grid, mode="shared", serving=stack, seed=3
            )
            _res, warm = BatchingObfuscationService(
                warm_system, window=1.0
            ).run(arrivals)
        assert cold.cached_queries == 0
        assert cold.serving_caches is not None
        assert warm.cached_queries == warm.obfuscated_queries
        assert warm.server_settled_nodes == 0
        assert warm.serving_caches.result_hits >= warm.cached_queries


class TestServingConfig:
    """The frozen config object and the legacy-kwargs deprecation path."""

    def test_defaults(self):
        config = ServingConfig()
        assert config.engine == "dijkstra"
        assert config.max_workers == 1
        assert not hasattr(config, "coalesce")
        assert config.result_capacity == 256

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_workers": 0},
            {"result_capacity": -1},
            {"max_workers": 4},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            ServingConfig(**kwargs)

    def test_frozen(self):
        config = ServingConfig()
        with pytest.raises(AttributeError):
            config.engine = "dijkstra"

    def test_dispatcher_takes_one_worker_only(self):
        ConcurrentDispatcher(object, max_workers=1)
        with pytest.raises(ValueError, match="max_workers must be 1"):
            ConcurrentDispatcher(object, max_workers=4)

    def test_to_dict_shape(self, tmp_path):
        doc = ServingConfig(
            engine="dijkstra-csr",
            spill_dir=str(tmp_path),
        ).to_dict()
        assert doc["schema"] == 1
        assert doc["kind"] == "serving_config"
        assert doc["engine"] == "dijkstra-csr"
        assert doc["max_workers"] == 1
        assert "coalesce" not in doc
        assert "preprocessing_capacity" not in doc

    def test_from_config_builds_equivalent_stack(self, small_grid):
        config = ServingConfig(engine="dijkstra")
        with ServingStack.from_config(small_grid, config) as stack:
            assert stack.config == config
            queries = _queries(small_grid, n=2)
            assert stack.answer_batch(queries)

