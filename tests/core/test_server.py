"""Unit tests for repro.core.server."""

from __future__ import annotations

import pytest

from repro.core.query import ObfuscatedPathQuery
from repro.core.server import DirectionsServer
from repro.network.generators import grid_network
from repro.search import list_engines
from repro.search.dijkstra import dijkstra_path
from repro.search.multi import NaivePairwiseProcessor, SharedTreeProcessor


@pytest.fixture(scope="module")
def net():
    return grid_network(15, 15, perturbation=0.1, seed=101)


@pytest.fixture(scope="module")
def query(net):
    nodes = list(net.nodes())
    return ObfuscatedPathQuery(
        (nodes[0], nodes[3]), (nodes[-1], nodes[-4], nodes[100])
    )


class TestAnswer:
    def test_returns_all_candidate_paths(self, net, query):
        server = DirectionsServer(net)
        response = server.answer(query)
        assert response.num_paths == query.num_pairs
        assert set(response.candidates.paths) == set(query.pairs())

    def test_candidates_are_true_shortest_paths(self, net, query):
        server = DirectionsServer(net)
        response = server.answer(query)
        for (s, t), path in response.candidates.paths.items():
            assert path.distance == pytest.approx(dijkstra_path(net, s, t).distance)

    def test_default_processor_is_shared_tree(self, net):
        server = DirectionsServer(net)
        assert isinstance(server.processor, SharedTreeProcessor)

    def test_custom_processor_used(self, net, query):
        server = DirectionsServer(net, processor=NaivePairwiseProcessor())
        response = server.answer(query)
        assert response.candidates.searches == query.num_pairs

    def test_observed_queries_logged(self, net, query):
        server = DirectionsServer(net)
        server.answer(query)
        server.answer(query)
        assert list(server.observed_queries) == [query, query]

    def test_counters_accumulate(self, net, query):
        server = DirectionsServer(net)
        server.answer(query)
        first = server.counters.stats.settled_nodes
        server.answer(query)
        assert server.counters.queries_served == 2
        assert server.counters.paths_returned == 2 * query.num_pairs
        assert server.counters.stats.settled_nodes == 2 * first

    def test_reset_counters(self, net, query):
        server = DirectionsServer(net)
        server.answer(query)
        server.reset_counters()
        assert server.counters.queries_served == 0
        assert not server.observed_queries


class TestInPlaceReweight:
    @pytest.mark.parametrize("engine", list_engines())
    def test_long_lived_server_sees_the_new_weights(self, engine):
        """A processor's memoized artifact must not outlive a mutation."""
        import random

        network = grid_network(10, 10, perturbation=0.1, seed=7)
        nodes = list(network.nodes())
        rng = random.Random(5)
        queries = [
            ObfuscatedPathQuery(
                tuple(rng.sample(nodes, 2)), tuple(rng.sample(nodes, 2))
            )
            for _ in range(10)
        ]
        server = DirectionsServer(network, engine=engine)

        def agrees_with_dijkstra():
            for query in queries:
                table = server.answer(query).candidates
                for (s, t), path in table.paths.items():
                    assert path.distance == pytest.approx(
                        dijkstra_path(network, s, t).distance
                    ), (engine, s, t)

        agrees_with_dijkstra()
        edges = sorted(network.edges())
        for u, v, weight in rng.sample(edges, 30):
            network.add_edge(u, v, weight * 0.05)  # in place, same object
        agrees_with_dijkstra()


class TestPagedServer:
    def test_page_faults_reported(self, net, query):
        server = DirectionsServer(net, paged=True, page_capacity=16, buffer_capacity=4)
        response = server.answer(query)
        assert response.candidates.stats.page_faults > 0

    def test_buffer_reset_between_queries_makes_faults_comparable(self, net, query):
        server = DirectionsServer(net, paged=True, page_capacity=16, buffer_capacity=64)
        first = server.answer(query).candidates.stats.page_faults
        second = server.answer(query).candidates.stats.page_faults
        assert first == second  # cache cleared, same cold-start faults

    def test_paged_results_match_unpaged(self, net, query):
        plain = DirectionsServer(net).answer(query)
        paged = DirectionsServer(net, paged=True).answer(query)
        for pair, path in plain.candidates.paths.items():
            assert paged.candidates.paths[pair].distance == pytest.approx(path.distance)

    def test_repr(self, net):
        assert "DirectionsServer" in repr(DirectionsServer(net))
