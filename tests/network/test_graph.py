"""Unit tests for repro.network.graph."""

from __future__ import annotations

import math

import pytest

from repro.exceptions import (
    DuplicateNodeError,
    EdgeError,
    UnknownNodeError,
)
from repro.network.graph import Point, RoadNetwork


class TestPoint:
    def test_distance_to_self_is_zero(self):
        p = Point(1.5, -2.0)
        assert p.distance_to(p) == 0.0

    def test_distance_is_euclidean(self):
        assert Point(0, 0).distance_to(Point(3, 4)) == pytest.approx(5.0)

    def test_distance_is_symmetric(self):
        a, b = Point(1, 2), Point(-3, 7)
        assert a.distance_to(b) == pytest.approx(b.distance_to(a))

    def test_point_is_immutable(self):
        p = Point(0, 0)
        with pytest.raises(AttributeError):
            p.x = 1.0


class TestNodeManagement:
    def test_add_node_and_position(self):
        net = RoadNetwork()
        net.add_node(1, 2.0, 3.0)
        assert net.position(1) == Point(2.0, 3.0)
        assert 1 in net
        assert len(net) == 1

    def test_add_node_coerces_to_float(self):
        net = RoadNetwork()
        net.add_node(1, 2, 3)
        assert isinstance(net.position(1).x, float)

    def test_duplicate_node_rejected(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        with pytest.raises(DuplicateNodeError):
            net.add_node(1, 5, 5)

    def test_position_of_unknown_node(self):
        net = RoadNetwork()
        with pytest.raises(UnknownNodeError):
            net.position(99)

    def test_string_node_ids_supported(self):
        net = RoadNetwork()
        net.add_node("home", 0, 0)
        net.add_node("clinic", 1, 1)
        net.add_edge("home", "clinic")
        assert net.has_edge("home", "clinic")

    def test_nodes_iterates_in_insertion_order(self):
        net = RoadNetwork()
        for node in (5, 3, 9):
            net.add_node(node, 0, node)
        assert list(net.nodes()) == [5, 3, 9]


class TestEdgeManagement:
    def test_add_edge_with_weight(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        net.add_edge(1, 2, 7.5)
        assert net.edge_weight(1, 2) == 7.5

    def test_undirected_edge_is_symmetric(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        net.add_edge(1, 2, 4.0)
        assert net.edge_weight(2, 1) == 4.0
        assert net.num_edges == 1

    def test_directed_edge_is_one_way(self):
        net = RoadNetwork(directed=True)
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        net.add_edge(1, 2, 4.0)
        assert net.has_edge(1, 2)
        assert not net.has_edge(2, 1)

    def test_default_weight_is_euclidean(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        net.add_node(2, 3, 4)
        net.add_edge(1, 2)
        assert net.edge_weight(1, 2) == pytest.approx(5.0)

    def test_self_loop_rejected(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        with pytest.raises(EdgeError):
            net.add_edge(1, 1, 1.0)

    def test_negative_weight_rejected(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        with pytest.raises(EdgeError):
            net.add_edge(1, 2, -0.1)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_weight_rejected(self, bad):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        with pytest.raises(EdgeError):
            net.add_edge(1, 2, bad)

    def test_edge_to_unknown_node_rejected(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        with pytest.raises(UnknownNodeError):
            net.add_edge(1, 2, 1.0)
        with pytest.raises(UnknownNodeError):
            net.add_edge(2, 1, 1.0)

    def test_re_adding_edge_updates_weight_not_count(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        net.add_edge(1, 2, 1.0)
        net.add_edge(1, 2, 9.0)
        assert net.num_edges == 1
        assert net.edge_weight(1, 2) == 9.0

    def test_remove_edge(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        net.add_edge(1, 2)
        net.remove_edge(1, 2)
        assert not net.has_edge(1, 2)
        assert not net.has_edge(2, 1)
        assert net.num_edges == 0

    def test_remove_missing_edge_raises(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        with pytest.raises(EdgeError):
            net.remove_edge(1, 2)

    def test_edge_weight_of_missing_edge_raises(self):
        net = RoadNetwork()
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        with pytest.raises(EdgeError):
            net.edge_weight(1, 2)

    def test_edges_yields_each_undirected_edge_once(self, small_grid):
        edges = list(small_grid.edges())
        assert len(edges) == small_grid.num_edges
        seen = set()
        for u, v, _w in edges:
            assert (v, u) not in seen
            seen.add((u, v))

    def test_neighbors_of_unknown_node_raises(self):
        net = RoadNetwork()
        with pytest.raises(UnknownNodeError):
            net.neighbors(0)

    def test_degree_counts_outgoing_edges(self, tiny_triangle):
        assert tiny_triangle.degree("b") == 2
        assert tiny_triangle.degree("a") == 2


class TestGeometry:
    def test_euclidean_distance(self, tiny_triangle):
        assert tiny_triangle.euclidean_distance("a", "c") == pytest.approx(2.0)

    def test_bounding_box(self, tiny_triangle):
        assert tiny_triangle.bounding_box() == (0.0, 0.0, 2.0, 0.0)

    def test_bounding_box_empty_network_raises(self):
        with pytest.raises(ValueError):
            RoadNetwork().bounding_box()


class TestConnectivity:
    def test_component_of_connected(self, small_grid):
        start = next(small_grid.nodes())
        assert len(small_grid.component_of(start)) == small_grid.num_nodes

    def test_component_of_unknown_raises(self, small_grid):
        with pytest.raises(UnknownNodeError):
            small_grid.component_of(-1)

    def test_is_connected_true_for_grid(self, small_grid):
        assert small_grid.is_connected()

    def test_empty_network_is_connected(self):
        assert RoadNetwork().is_connected()

    def test_disconnected_components_sorted_by_size(self):
        net = RoadNetwork()
        for i in range(5):
            net.add_node(i, i, 0)
        net.add_edge(0, 1)
        net.add_edge(1, 2)
        net.add_edge(3, 4)
        comps = net.connected_components()
        assert [len(c) for c in comps] == [3, 2]

    def test_largest_component_subgraph(self):
        net = RoadNetwork()
        for i in range(5):
            net.add_node(i, i, 0)
        net.add_edge(0, 1)
        net.add_edge(1, 2)
        net.add_edge(3, 4)
        largest = net.largest_component_subgraph()
        assert set(largest.nodes()) == {0, 1, 2}
        assert largest.num_edges == 2

    def test_directed_weak_connectivity(self):
        net = RoadNetwork(directed=True)
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        net.add_edge(1, 2)
        assert len(net.connected_components()) == 1

    def test_strong_connectivity_requires_return_paths(self):
        net = RoadNetwork(directed=True)
        net.add_node(1, 0, 0)
        net.add_node(2, 1, 0)
        net.add_edge(1, 2)
        assert net.is_connected()
        assert not net.is_strongly_connected()
        net.add_edge(2, 1)
        assert net.is_strongly_connected()

    def test_strong_connectivity_directed_cycle(self):
        net = RoadNetwork(directed=True)
        for i in range(4):
            net.add_node(i, i, 0)
        for i in range(4):
            net.add_edge(i, (i + 1) % 4)
        assert net.is_strongly_connected()

    def test_strong_connectivity_on_undirected_equals_connected(self, small_grid):
        assert small_grid.is_strongly_connected() == small_grid.is_connected()

    def test_strong_connectivity_empty_network(self):
        assert RoadNetwork(directed=True).is_strongly_connected()


class TestSubgraphAndCopy:
    def test_subgraph_keeps_internal_edges_only(self, tiny_triangle):
        sub = tiny_triangle.subgraph(["a", "b"])
        assert set(sub.nodes()) == {"a", "b"}
        assert sub.has_edge("a", "b")
        assert sub.num_edges == 1

    def test_subgraph_unknown_node_raises(self, tiny_triangle):
        with pytest.raises(UnknownNodeError):
            tiny_triangle.subgraph(["a", "zz"])

    def test_copy_is_independent(self, tiny_triangle):
        clone = tiny_triangle.copy()
        clone.remove_edge("a", "b")
        assert tiny_triangle.has_edge("a", "b")
        assert not clone.has_edge("a", "b")

    def test_copy_preserves_positions_and_weights(self, tiny_triangle):
        clone = tiny_triangle.copy()
        for node in tiny_triangle.nodes():
            assert clone.position(node) == tiny_triangle.position(node)
        for u, v, w in tiny_triangle.edges():
            assert clone.edge_weight(u, v) == w

    @pytest.mark.parametrize("directed", [False, True])
    def test_copy_keeps_adjacency_order_and_counts(self, directed):
        net = RoadNetwork(directed=directed)
        for node in range(4):
            net.add_node(node, float(node), 0.0)
        # insertion order a replay through edges() would not reproduce
        for u, v in [(2, 1), (0, 1), (1, 3), (3, 0)]:
            net.add_edge(u, v, 1.0 + u)
        clone = net.copy()
        assert clone.directed == directed
        assert clone.version == net.version
        assert clone.num_edges == net.num_edges == 4
        assert list(clone.nodes()) == list(net.nodes())
        for node in net.nodes():
            assert list(clone.neighbors(node).items()) == list(
                net.neighbors(node).items()
            )
        assert list(clone.edges()) == list(net.edges())

    def test_mutating_a_copy_leaves_the_original_and_its_memos_alone(
        self, small_grid
    ):
        """What copy-on-write epochs rely on: the old epoch's network,
        its ``version``-keyed memos and its edge count never move."""
        from repro.network.csr import csr_snapshot
        from repro.network.partition import partition_snapshot
        from repro.service.cache import network_fingerprint
        from repro.service.serving import ServingStack

        stack = ServingStack.from_config(small_grid)
        weights = {(u, v): w for u, v, w in small_grid.edges()}
        version, edges = small_grid.version, small_grid.num_edges
        csr, partition = csr_snapshot(small_grid), partition_snapshot(small_grid)
        fingerprint = stack._fingerprint()
        assert fingerprint == network_fingerprint(small_grid)

        clone = small_grid.copy()
        (u, v), w = next(iter(weights.items()))
        clone.add_edge(u, v, w * 3.0)
        clone.remove_edge(*list(weights)[1])
        clone.add_node("extra", 0.0, 0.0)
        clone.add_edge("extra", u, 1.0)

        assert {(a, b): c for a, b, c in small_grid.edges()} == weights
        assert (small_grid.version, small_grid.num_edges) == (version, edges)
        assert "extra" not in small_grid
        assert csr_snapshot(small_grid) is csr
        assert partition_snapshot(small_grid) is partition
        assert stack._fingerprint_memo == (version, fingerprint)
        assert network_fingerprint(small_grid) == fingerprint
        assert clone.num_edges == edges  # +1 road, -1 road
        assert clone.version > version
        assert csr_snapshot(clone) is not csr
        assert network_fingerprint(clone) != fingerprint
        stack.close()

    def test_repr_mentions_counts(self, tiny_triangle):
        text = repr(tiny_triangle)
        assert "nodes=3" in text and "edges=3" in text


class TestNetworkxInterop:
    def test_round_trip_distances_match(self, small_grid):
        g = small_grid.to_networkx()
        assert g.number_of_nodes() == small_grid.num_nodes
        assert g.number_of_edges() == small_grid.num_edges
        u = next(small_grid.nodes())
        for v, w in small_grid.neighbors(u).items():
            assert math.isclose(g[u][v]["weight"], w)
