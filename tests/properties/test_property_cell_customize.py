"""Property tests: how a cell's clique is grown never shows in the overlay.

``OverlayGraph._customize_cell`` grows a cell's boundary trees as rows
of one batched numpy sweep on strict cell snapshots and one scalar heap
at a time otherwise, and prunes arcs by reading tree labels along parent
pointers.  Both must render exactly the overlay the original routine
rendered: one ``csr_dijkstra_to_many`` tree per boundary node, every
path materialized, pruned by re-summing weights along it.  That routine
is frozen below as the oracle.  The maps are tie-heavy (small integer
weights, zero weights, one-way arcs, islands), where a label-correcting
sweep and a label-setting heap part ways unless parents are canonical,
and every partition holds cells with zero, one and many boundary nodes.

Needs numpy (the CI leg that installs it runs this file); the
numpy-less path is exercised here by blocking the overlay's numpy.
"""

from __future__ import annotations

import contextlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.network.partition import Partition
from repro.search import overlay as overlay_module
from repro.search.kernels import csr_dijkstra_to_many
from repro.search.overlay import OverlayGraph, build_overlay, dumps_overlay
from repro.search.vectorized import numpy_available

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

#: weight draws, from tie-free to tie-saturated; "int0" is never strict
_WEIGHTS = {
    "float": lambda rng: rng.uniform(0.1, 5.0),
    "int": lambda rng: float(rng.randint(1, 3)),
    "int0": lambda rng: float(rng.randint(0, 2)),
}


def _through_boundary(network, path, bset):
    nodes = path.nodes
    if len(nodes) < 3:
        return False
    total = path.distance
    prefix = 0.0
    for i in range(1, len(nodes) - 1):
        prefix += network.neighbors(nodes[i - 1])[nodes[i]]
        if nodes[i] in bset and 0.0 < prefix < total:
            return True
    return False


def _reference_clique(network, partition, cell, fcsr, stats):
    """The clique routine as it was before batching, frozen."""
    boundary = partition.boundary[cell]
    bset = frozenset(boundary)
    clique = {}
    for b in boundary:
        trees = csr_dijkstra_to_many(
            network, b, boundary, csr=fcsr, stats=stats, strict=False
        )
        kept = {}
        for b2 in boundary:
            if b2 == b:
                continue
            path = trees.get(b2)
            if path is None or _through_boundary(network, path, bset):
                continue
            kept[b2] = path
        clique[b] = kept
    return clique


@st.composite
def partitioned_networks(draw):
    """A random net plus a random partition of it.

    The random part may be directed, disconnected and all ties.  Two
    fixed extras guarantee the boundary-size corners: an island cell
    (no boundary node) and a pendant cell hanging off the random part by
    one edge (one boundary node); random cells of a few nodes each
    supply the many-boundary cells.
    """
    n = draw(st.integers(min_value=4, max_value=40))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    kind = draw(st.sampled_from(tuple(_WEIGHTS)))
    weight = _WEIGHTS[kind]
    net = RoadNetwork(directed=draw(st.booleans()))
    for node in range(n + 4):
        net.add_node(node, rng.uniform(0, 10), rng.uniform(0, 10))
    for _ in range(int(draw(st.floats(min_value=0.8, max_value=3.0)) * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not net.has_edge(u, v):
            net.add_edge(u, v, weight(rng))
    island, pendant = (n, n + 1), (n + 2, n + 3)
    for u, v in (island, pendant, (pendant[0], 0)):
        net.add_edge(u, v, weight(rng))
        net.add_edge(v, u, weight(rng))
    cells: list[list[int]] = [[] for _ in range(draw(st.integers(1, 6)))]
    for node in range(n):
        cells[rng.randrange(len(cells))].append(node)
    cells = [c for c in cells if c] + [list(island), list(pendant)]
    partition = Partition.from_cells(net, cells, max(len(c) for c in cells))
    return net, partition, kind


def _numpy_blocked():
    return mock.patch.object(overlay_module, "_np", None)


def _dumps(network, partition, *, numpy=True, reference=False):
    with contextlib.ExitStack() as stack:
        if not numpy:
            stack.enter_context(_numpy_blocked())
        if reference:
            stack.enter_context(mock.patch.object(
                OverlayGraph, "_customize_cell",
                staticmethod(lambda part, cell, fcsr, stats: _reference_clique(
                    network, part, cell, fcsr, stats
                )),
            ))
        return dumps_overlay(build_overlay(network, partition=partition))


@given(case=partitioned_networks())
@settings(max_examples=200, deadline=None)
def test_swept_heap_and_frozen_cliques_render_identically(case):
    net, partition, _kind = case
    boundary_sizes = {len(b) for b in partition.boundary}
    assert {0, 1} <= boundary_sizes
    want = _dumps(net, partition, reference=True)
    assert _dumps(net, partition) == want
    assert _dumps(net, partition, numpy=False) == want


def test_strict_cells_never_fall_back_to_the_heap():
    """Wall time cannot tell the sweep from the heap at every scale, so
    pin the path: with numpy, every strict cell with two or more
    boundary nodes is swept."""
    net = grid_network(12, 12)
    sizes = []

    def heap(csr, boundary, stats):
        sizes.append(len(boundary))
        return heap_clique(csr, boundary, stats)

    heap_clique = overlay_module._heap_clique
    with mock.patch.object(overlay_module, "_heap_clique", heap):
        overlay = build_overlay(net, cell_capacity=16)
    multi = sum(len(b) > 1 for b in overlay.partition.boundary)
    assert multi > 1
    assert all(size <= 1 for size in sizes)


@given(case=partitioned_networks(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_recustomized_epochs_match_a_fresh_build(case, data):
    """Random reweights (a zero weight may turn a cell non-strict, and a
    later one strict again) through O(change) epochs, numpy on and
    blocked: every epoch renders what a fresh build renders."""
    net, partition, kind = case
    edges = sorted((u, v) for u, v, _ in net.edges())
    weight = _WEIGHTS[kind]
    for numpy in (True, False):
        rng = random.Random(data.draw(st.integers(0, 10_000)))
        with contextlib.nullcontext() if numpy else _numpy_blocked():
            overlay = build_overlay(net, partition=partition)
            for _ in range(data.draw(st.integers(1, 4))):
                changed = [
                    (u, v, weight(rng) if rng.random() < 0.7 else 0.0)
                    for u, v in rng.sample(edges, rng.randint(1, 3))
                ]
                snapshot = overlay.network.copy()
                for u, v, w in changed:
                    snapshot.add_edge(u, v, w)
                overlay = overlay.recustomized_on(
                    snapshot, cells=overlay.touched_cells(changed),
                    changed_edges=changed,
                )
                fresh = build_overlay(snapshot, partition=partition)
                assert dumps_overlay(overlay) == dumps_overlay(fresh)
