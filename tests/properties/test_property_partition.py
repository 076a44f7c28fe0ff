"""Property tests: partition invariants and incremental recustomization.

Random (possibly directed, possibly disconnected) networks; the
partitioner must always produce an exact, balanced partition with every
cut edge accounted once, and an overlay recustomized after a random
re-weight must serialize byte-identically to a from-scratch build on
the re-weighted network — the exactness contract behind
:meth:`repro.service.serving.ServingStack.reweight`.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.graph import RoadNetwork
from repro.network.partition import partition_network
from repro.search.overlay import build_overlay, dumps_overlay


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


@given(
    net=networks(min_nodes=3),
    capacity=st.integers(min_value=2, max_value=10),
    edge_rank=st.integers(min_value=0, max_value=10_000),
    factor=st.floats(min_value=0.2, max_value=4.0),
)
@settings(max_examples=40, deadline=None)
def test_recustomize_matches_scratch_build(net, capacity, edge_rank, factor):
    """Recustomize after a re-weight == byte-identical from-scratch build."""
    edges = list(net.edges())
    if not edges:
        return
    overlay = build_overlay(net, cell_capacity=capacity)
    u, v, w = edges[edge_rank % len(edges)]
    net.add_edge(u, v, w * factor)
    refreshed = overlay.recustomized(overlay.touched_cells([(u, v)]))
    scratch = build_overlay(net, cell_capacity=capacity)
    assert dumps_overlay(refreshed) == dumps_overlay(scratch)
    assert refreshed.metric == scratch.metric
