"""Unit tests for bidirectional Dijkstra (``csr_bidirectional_path``).

Oracle parity (bidirectional vs. Dijkstra on random
directed/disconnected networks) lives in the engine-conformance harness
(``tests/search/test_engine_conformance.py``); this file keeps the
algorithm-specific behaviors.
"""

from __future__ import annotations

import random

import pytest

from repro.exceptions import NoPathError, UnknownNodeError
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.search.kernels import csr_bidirectional_path
from repro.search.dijkstra import dijkstra_path
from repro.search.result import SearchStats


@pytest.fixture(scope="module")
def oracle_pair():
    net = grid_network(15, 15, perturbation=0.15, seed=41)
    return net, net.to_networkx()


class TestCorrectness:
    def test_path_endpoints_and_walkability(self, oracle_pair):
        net, _g = oracle_pair
        nodes = list(net.nodes())
        path = csr_bidirectional_path(net, nodes[3], nodes[-4])
        assert path.nodes[0] == nodes[3]
        assert path.nodes[-1] == nodes[-4]
        total = 0.0
        for u, v in path.edges():
            assert net.has_edge(u, v)
            total += net.edge_weight(u, v)
        assert total == pytest.approx(path.distance)

    def test_source_equals_destination(self, oracle_pair):
        net, _g = oracle_pair
        node = next(net.nodes())
        path = csr_bidirectional_path(net, node, node)
        assert path.nodes == (node,)

    def test_adjacent_nodes(self, tiny_triangle):
        path = csr_bidirectional_path(tiny_triangle, "a", "b")
        assert path.distance == pytest.approx(1.0)

    def test_unreachable_raises(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        with pytest.raises(NoPathError):
            csr_bidirectional_path(net, 1, 2)

    def test_directed_network_supported(self):
        net = RoadNetwork(directed=True)
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        net.add_node(3, 2, 0)
        net.add_edge(1, 2, 1.0)
        net.add_edge(2, 3, 1.0)
        net.add_edge(3, 1, 1.0)
        path = csr_bidirectional_path(net, 1, 3)
        assert path.nodes == (1, 2, 3)
        # The reverse trip must honor the one-way cycle.
        assert csr_bidirectional_path(net, 3, 1).distance == pytest.approx(1.0)

    def test_unknown_endpoints(self, oracle_pair):
        net, _g = oracle_pair
        with pytest.raises(UnknownNodeError):
            csr_bidirectional_path(net, -1, next(net.nodes()))


class TestEfficiency:
    def test_settles_fewer_nodes_than_unidirectional(self, oracle_pair):
        net, _g = oracle_pair
        nodes = list(net.nodes())
        rng = random.Random(7)
        bi_total, uni_total = 0, 0
        for _ in range(15):
            s, t = rng.sample(nodes, 2)
            sb, su = SearchStats(), SearchStats()
            csr_bidirectional_path(net, s, t, stats=sb)
            dijkstra_path(net, s, t, stats=su)
            bi_total += sb.settled_nodes
            uni_total += su.settled_nodes
        assert bi_total < uni_total
