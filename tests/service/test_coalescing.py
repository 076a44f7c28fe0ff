"""Unit tests for coalescing: a batch is the window, one answer path.

A batch's distinct misses are one union pass (two or more) or one solo
``process`` call (one), so "serial" here means one batch per query.
"""

from __future__ import annotations

import time

import pytest

from repro.core.obfuscator import PathQueryObfuscator
from repro.core.query import (
    ClientRequest,
    ObfuscatedPathQuery,
    PathQuery,
    ProtectionSetting,
)
from repro.core.system import OpaqueSystem
from repro.exceptions import NoPathError
from repro.network.graph import RoadNetwork
from repro.obs.trace import Tracer
from repro.service.gateway import _evaluate_pairs
from repro.service.serving import ServingConfig, ServingStack
from repro.service.wire import RouteResponse

#: one batch per query (solo ``process`` calls) or one batch for all
#: (one union pass)
COALESCE = pytest.mark.parametrize(
    "coalesce", [False, True], ids=["dispatch", "coalesce"]
)


def _answer_each(stack, queries, coalesce):
    if coalesce:
        return stack.answer_each(queries)
    return [stack.answer_each([q])[0] for q in queries]


def _one_by_one(stack, queries):
    return [stack.answer_batch([q])[0] for q in queries]


def _queries(network, n=6, seed=5, offset=40):
    requests = [
        ClientRequest(f"u{i}", PathQuery(i, offset + i), ProtectionSetting(3, 3))
        for i in range(n)
    ]
    obfuscator = PathQueryObfuscator(network, seed=seed)
    records = obfuscator.obfuscate_batch(requests, mode="independent")
    return [r.query for r in records]


def _tables(responses):
    return [
        {
            pair: (path.nodes, path.distance)
            for pair, path in r.candidates.paths.items()
        }
        for r in responses
    ]


def _two_islands():
    """Two 4-node lines with no road between them."""
    net = RoadNetwork()
    for i in range(8):
        net.add_node(i, float(i), 0.0)
    for i in (0, 1, 2, 4, 5, 6):
        net.add_edge(i, i + 1, 1.0)
    return net


def _one_unreachable_batch():
    """Eight distinct queries; index 3 crosses the islands."""
    pairs = [(0, 1), (0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (4, 5), (4, 6)]
    return [ObfuscatedPathQuery((s,), (t,)) for s, t in pairs], 3


class TestWindowSemantics:
    def test_one_batch_is_one_window(self, small_grid):
        queries = _queries(small_grid)
        tracer = Tracer()
        with ServingStack.from_config(small_grid, tracer=tracer) as stack:
            responses = stack.answer_batch(queries)
            coalesced = stack.server.counters.coalesced_queries
        (root,) = tracer.roots
        kernels = [s.name for s in root.walk() if s.name.startswith("engine.")]
        assert kernels == ["engine.union"]
        assert coalesced == len(queries)
        assert all(r.coalesced for r in responses)

    def test_lone_query_shares_nothing(self, small_grid):
        query = _queries(small_grid, n=1)[0]
        tracer = Tracer()
        with ServingStack.from_config(small_grid, tracer=tracer) as stack:
            response = stack.answer(query)
            coalesced = stack.server.counters.coalesced_queries
        (root,) = tracer.roots
        kernels = [s.name for s in root.walk() if s.name.startswith("engine.")]
        # A window of one shares nothing: a solo pass, no coalesced marking.
        assert kernels == ["engine.process"]
        assert not response.coalesced
        assert coalesced == 0

    def test_lone_cached_query_never_waits(self, small_grid):
        """No submitter is parked waiting for batch-mates that cannot come:
        a cached ``answer`` costs what the constant-work hit path costs."""
        query = _queries(small_grid, n=1)[0]

        def mean_cached_answer_ms(answer):
            t0 = time.perf_counter()
            for _ in range(200):
                assert answer(query)
            return (time.perf_counter() - t0) / 200 * 1e3

        with ServingStack.from_config(small_grid) as stack:
            stack.answer(query)
            batch = mean_cached_answer_ms(
                lambda q: stack.answer(q).from_cache
            )
            hit = mean_cached_answer_ms(stack.answer_cached)
        assert batch < hit + 1.0

    def test_server_counter_reports_sharing(self, small_grid):
        queries = _queries(small_grid, n=4)
        with ServingStack.from_config(small_grid) as stack:
            stack.answer_batch(queries)
            names = stack.metrics.to_json()
        assert "repro_server_coalesced_queries_total" in names
        assert "repro_coalesce" not in names


class TestExactness:
    def test_coalesced_responses_byte_identical_to_serial(self, small_grid):
        queries = _queries(small_grid, n=8)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        ) as serial:
            expected = _tables(_one_by_one(serial, queries))
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="dijkstra"),
        ) as stack:
            got = _tables(stack.answer_batch(queries))
        assert got == expected

    def test_sessions_in_one_batch_share_one_union_pass(self, small_grid):
        queries = _queries(small_grid, n=8)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="ch-csr"),
        ) as serial:
            expected = _tables(_one_by_one(serial, queries))
            settled_serial = serial.server.counters.stats.settled_nodes
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="ch-csr"),
        ) as stack:
            # four sessions of two queries each meet in one batch
            responses = stack.answer_batch(queries)
            settled = stack.server.counters.stats.settled_nodes
            coalesced_counter = stack.server.counters.coalesced_queries
        assert _tables(responses) == expected
        assert coalesced_counter == 8
        # The union bucket pass shares backward/forward sweeps.
        assert settled <= settled_serial

    def test_failing_query_does_not_poison_window_mates(self):
        net = _two_islands()
        good = ObfuscatedPathQuery((0,), (1,))
        bad = ObfuscatedPathQuery((0,), (4,))
        with ServingStack.from_config(net) as stack:
            with pytest.raises(NoPathError):
                stack.answer_batch([good, bad])
            # The good batch-mate was evaluated and cached anyway.
            response = stack.answer(good)
        assert response.from_cache

    @COALESCE
    def test_one_unreachable_pair_costs_its_mates_nothing(self, coalesce):
        queries, bad = _one_unreachable_batch()
        good = [q for i, q in enumerate(queries) if i != bad]
        with ServingStack.from_config(_two_islands()) as stack:
            outcomes = _answer_each(stack, queries, coalesce)
            assert isinstance(outcomes[bad], NoPathError)
            assert [o.query for i, o in enumerate(outcomes) if i != bad] == good
            assert all(
                o.coalesced == coalesce
                for i, o in enumerate(outcomes) if i != bad
            )
            # each query consulted once; the server observed all of them
            # in submission order and served only the good ones
            assert (stack.results.hits, stack.results.misses) == (0, 8)
            assert list(stack.server.observed_queries) == queries
            assert stack.server.counters.queries_served == len(good)
            # answer_batch raises, with the mates already cached
            with pytest.raises(NoPathError):
                stack.answer_batch(queries)
            assert (stack.results.hits, stack.results.misses) == (7, 9)
            assert all(r.from_cache for r in stack.answer_batch(good))

    @COALESCE
    def test_gateway_maps_outcomes_without_a_second_search(self, coalesce):
        queries, bad = _one_unreachable_batch()
        pairs = [(q.sources, q.destinations) for q in queries]
        with ServingStack.from_config(_two_islands()) as stack:
            if coalesce:
                bodies = _evaluate_pairs(stack, pairs)
            else:
                bodies = [_evaluate_pairs(stack, [p])[0] for p in pairs]
            assert bodies[bad] == "no_path"
            for i, body in enumerate(bodies):
                if i != bad:
                    reply = RouteResponse.from_json(body)
                    assert not reply.from_cache
                    assert reply.coalesced == coalesce
            assert (stack.results.hits, stack.results.misses) == (0, 8)
            assert stack.server.counters.queries_served == 7
            assert list(stack.server.observed_queries) == queries

    def test_gateway_rejects_a_malformed_pair_alone(self):
        with ServingStack.from_config(_two_islands()) as stack:
            bodies = _evaluate_pairs(stack, [((0,), (1,)), ((), (1,)), ((9,), (1,))])
            assert isinstance(bodies[0], bytes)
            assert bodies[1:] == ["invalid_request", "invalid_request"]
            assert stack.server.counters.queries_served == 1

    def test_work_attributed_once_across_slices(self, small_grid):
        queries = _queries(small_grid, n=4)
        with ServingStack.from_config(small_grid) as stack:
            responses = stack.answer_batch(queries)
            settled = stack.server.counters.stats.settled_nodes
        per_response = [r.candidates.stats.settled_nodes for r in responses]
        assert sum(per_response) == settled
        # First slice carries the pass, the rest carry zero.
        assert per_response[0] == settled
        assert all(count == 0 for count in per_response[1:])


class TestCacheInterplay:
    def test_coalesced_results_populate_result_cache(self, small_grid):
        queries = _queries(small_grid, n=4)
        with ServingStack.from_config(small_grid) as stack:
            cold = stack.answer_batch(queries)
            warm = stack.answer_batch(queries)
            snap = stack.snapshot()
        assert all(not r.from_cache for r in cold)
        assert all(r.from_cache for r in warm)
        # Warm responses come straight from the cache: no new union pass.
        assert all(not r.coalesced for r in warm)
        assert snap.result_hits == len(queries)
        assert snap.result_misses == len(queries)

    def test_in_window_duplicates_share_one_slice(self, small_grid):
        query, other = _queries(small_grid, n=2)
        with ServingStack.from_config(small_grid) as stack:
            responses = stack.answer_batch([query, other, query, query])
        assert [r.from_cache for r in responses] == [False, False, True, True]
        assert all(r.coalesced for r in responses)
        assert responses[0].candidates is responses[3].candidates
        assert (stack.results.hits, stack.results.misses) == (2, 2)

    def test_preprocessing_artifact_shared_with_union_pass(self, small_grid):
        queries = _queries(small_grid, n=4)
        with ServingStack.from_config(
            small_grid,
            ServingConfig(engine="ch"),
        ) as stack:
            stack.answer_batch(queries)
            stack.answer_batch(_queries(small_grid, n=4, seed=9))
        assert stack.preprocessing.misses == 1  # one contraction total


class TestSystemIntegration:
    def test_session_report_counts_coalesced_queries(self, small_grid):
        requests = [
            ClientRequest(f"u{i}", PathQuery(i, 40 + i), ProtectionSetting(3, 3))
            for i in range(6)
        ]
        with ServingStack.from_config(small_grid) as stack:
            system = OpaqueSystem(
                small_grid, mode="independent", serving=stack, seed=1
            )
            baseline = OpaqueSystem(
                small_grid, mode="independent", seed=1
            )
            results = system.submit(requests)
            expected = baseline.submit(requests)
            report = system.last_report
        assert {u: p.nodes for u, p in results.items()} == {
            u: p.nodes for u, p in expected.items()
        }
        assert report.coalesced_queries == len(report.records)
        assert report.cached_queries == 0

    def test_service_report_counts_coalesced_queries(self, small_grid):
        from repro.service.simulator import (
            BatchingObfuscationService,
            poisson_arrivals,
        )

        requests = [
            ClientRequest(f"u{i}", PathQuery(i, 40 + i), ProtectionSetting(2, 2))
            for i in range(6)
        ]
        arrivals = poisson_arrivals(requests, rate=50.0, seed=0)
        with ServingStack.from_config(small_grid) as stack:
            system = OpaqueSystem(small_grid, mode="shared", serving=stack, seed=3)
            _res, report = BatchingObfuscationService(system, window=10.0).run(
                arrivals
            )
        # One 10s window holds all arrivals; its queries coalesce all
        # together (>= 2 distinct queries shared a pass) or not at all.
        assert report.coalesced_queries in (0, report.obfuscated_queries)
        if report.obfuscated_queries < 2:
            assert report.coalesced_queries == 0
