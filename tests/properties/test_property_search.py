"""Property-based tests: search algorithms on random road networks.

Strategy: build a random connected geometric-ish network from hypothesis
data, then assert cross-algorithm agreement and metric properties that
must hold for any correct shortest-path implementation.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import RoadNetwork
from repro.search.astar import astar_path
from repro.search.kernels import csr_bidirectional_path
from repro.search.dijkstra import dijkstra_path, dijkstra_sssp, dijkstra_to_many


@st.composite
def connected_networks(draw, min_nodes=2, max_nodes=30):
    """A connected undirected network with Euclidean-consistent weights.

    Built as a random spanning tree plus random extra edges, so
    connectivity is guaranteed by construction.  Weights are Euclidean
    lengths times a factor >= 1, keeping the A* heuristic admissible.
    """
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    extra_edges = draw(st.integers(min_value=0, max_value=2 * n))
    rng = random.Random(seed)
    net = RoadNetwork()
    for node in range(n):
        net.add_node(node, rng.uniform(0, 10), rng.uniform(0, 10))
    for node in range(1, n):
        anchor = rng.randrange(node)
        net.add_edge(
            node,
            anchor,
            net.euclidean_distance(node, anchor) * rng.uniform(1.0, 2.0) + 1e-9,
        )
    for _ in range(extra_edges):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not net.has_edge(u, v):
            net.add_edge(
                u, v, net.euclidean_distance(u, v) * rng.uniform(1.0, 2.0) + 1e-9
            )
    return net


@given(connected_networks(), st.data())
@settings(max_examples=60, deadline=None)
def test_all_algorithms_agree(net, data):
    nodes = list(net.nodes())
    s = data.draw(st.sampled_from(nodes))
    t = data.draw(st.sampled_from(nodes))
    d = dijkstra_path(net, s, t)
    a = astar_path(net, s, t)
    b = csr_bidirectional_path(net, s, t)
    assert abs(d.distance - a.distance) < 1e-6
    assert abs(d.distance - b.distance) < 1e-6


@given(connected_networks(), st.data())
@settings(max_examples=60, deadline=None)
def test_triangle_inequality_on_network_distance(net, data):
    nodes = list(net.nodes())
    a = data.draw(st.sampled_from(nodes))
    b = data.draw(st.sampled_from(nodes))
    c = data.draw(st.sampled_from(nodes))
    d_ab = dijkstra_path(net, a, b).distance
    d_bc = dijkstra_path(net, b, c).distance
    d_ac = dijkstra_path(net, a, c).distance
    assert d_ac <= d_ab + d_bc + 1e-6


@given(connected_networks(), st.data())
@settings(max_examples=60, deadline=None)
def test_symmetry_on_undirected_networks(net, data):
    nodes = list(net.nodes())
    s = data.draw(st.sampled_from(nodes))
    t = data.draw(st.sampled_from(nodes))
    assert abs(
        dijkstra_path(net, s, t).distance - dijkstra_path(net, t, s).distance
    ) < 1e-6


@given(connected_networks(), st.data())
@settings(max_examples=60, deadline=None)
def test_path_distance_equals_edge_sum(net, data):
    nodes = list(net.nodes())
    s = data.draw(st.sampled_from(nodes))
    t = data.draw(st.sampled_from(nodes))
    path = dijkstra_path(net, s, t)
    total = sum(net.edge_weight(u, v) for u, v in path.edges())
    assert abs(total - path.distance) < 1e-6


@given(connected_networks(), st.data())
@settings(max_examples=40, deadline=None)
def test_ssmd_matches_point_queries(net, data):
    nodes = list(net.nodes())
    s = data.draw(st.sampled_from(nodes))
    targets = data.draw(
        st.lists(st.sampled_from(nodes), min_size=1, max_size=5, unique=True)
    )
    many = dijkstra_to_many(net, s, targets)
    for t in targets:
        assert abs(many[t].distance - dijkstra_path(net, s, t).distance) < 1e-6


@given(connected_networks(), st.data())
@settings(max_examples=40, deadline=None)
def test_sssp_distances_lower_bound_nothing(net, data):
    """Every SSSP distance is <= any specific path's distance, and the
    distance map is consistent with one-step relaxations (fixpoint)."""
    nodes = list(net.nodes())
    s = data.draw(st.sampled_from(nodes))
    distances, _pred = dijkstra_sssp(net, s)
    for u in nodes:
        for v, w in net.neighbors(u).items():
            assert distances[v] <= distances[u] + w + 1e-9


@given(connected_networks(), st.data())
@settings(max_examples=40, deadline=None)
def test_subpath_optimality(net, data):
    """Any prefix of a shortest path is itself a shortest path."""
    nodes = list(net.nodes())
    s = data.draw(st.sampled_from(nodes))
    t = data.draw(st.sampled_from(nodes))
    path = dijkstra_path(net, s, t)
    if len(path.nodes) < 3:
        return
    mid_index = data.draw(st.integers(min_value=1, max_value=len(path.nodes) - 2))
    mid = path.nodes[mid_index]
    prefix_distance = sum(
        net.edge_weight(u, v)
        for u, v in zip(path.nodes[: mid_index + 1], path.nodes[1 : mid_index + 1])
    )
    assert abs(prefix_distance - dijkstra_path(net, s, mid).distance) < 1e-6
