"""Property tests: partition invariants.

Random (possibly directed, possibly disconnected) networks; the
partitioner must always produce an exact, balanced partition with every
cut edge accounted once.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import RoadNetwork
from repro.network.partition import partition_network


@st.composite
def networks(draw, min_nodes=2, max_nodes=24):
    """Random weighted network — possibly directed, possibly disconnected."""
    n = draw(st.integers(min_value=min_nodes, max_value=max_nodes))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    directed = draw(st.booleans())
    density = draw(st.floats(min_value=0.3, max_value=3.0))
    rng = random.Random(seed)
    net = RoadNetwork(directed=directed)
    for node in range(n):
        net.add_node(node, rng.uniform(0, 10), rng.uniform(0, 10))
    for _ in range(int(density * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not net.has_edge(u, v):
            net.add_edge(u, v, rng.uniform(0.1, 5.0))
    return net


@given(
    net=networks(),
    capacity=st.integers(min_value=1, max_value=12),
    method=st.sampled_from(["inertial", "bfs"]),
)
@settings(max_examples=60, deadline=None)
def test_partition_invariants(net, capacity, method):
    """Cells partition the node set; balance holds; cut accounted once."""
    partition = partition_network(net, cell_capacity=capacity, method=method)
    assigned = [node for cell in partition.cells for node in cell]
    assert sorted(assigned) == sorted(net.nodes())
    assert len(assigned) == len(set(assigned))
    for cell in partition.cells:
        assert 1 <= len(cell) <= capacity
    crossing = {
        (u, v)
        for u, v, _w in net.edges()
        if partition.cell_of[u] != partition.cell_of[v]
    }
    listed = list(partition.cut_edges)
    assert len(listed) == len(set(listed)), "a cut edge is listed twice"
    assert {
        (u, v) if (u, v) in crossing else (v, u) for u, v in listed
    } == crossing
    boundary_union = {b for cell in partition.boundary for b in cell}
    endpoint_union = {n for edge in crossing for n in edge}
    assert boundary_union == endpoint_union
