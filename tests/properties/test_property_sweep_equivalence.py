"""Property tests: the frontier sweep's two expansions are the old sweep.

``_sweep_tables`` expands each frontier wave through padded
``(num_nodes, max out-degree)`` neighbour tables when the padding is
cheap (:attr:`VecGraph.padded`) and by CSR slice arithmetic on skewed
snapshots, sums its counters once after convergence and only applies
truncation caps once some row has reached every destination.  None of
that may show: the distance table must be byte-identical and all four
:class:`SearchStats` counters equal to those of the sweep it replaced,
frozen below as the oracle.  Those tables feed ``dijkstra-csr``'s large
queries and ``dijkstra-vec``, so this one contract keeps all of their
answers and counters unchanged.

The maps are directed and undirected, connected or not, with float,
small-integer and zero weights; destination rows may be empty and
sources may repeat.  Grid-like maps take the padded expansion, star maps
(one hub adjacent to everything) the CSR one.

Needs numpy (the CI leg that installs it runs this file).
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.csr import csr_snapshot
from repro.network.generators import grid_network, scale_free_network
from repro.network.graph import RoadNetwork
from repro.search.result import SearchStats
from repro.search.vectorized import (
    VecGraph,
    _sweep_tables,
    numpy_available,
    vec_batch_paths,
    vec_view,
)

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

if numpy_available():
    import numpy as np

#: weight draws, from tie-free to tie-saturated
_WEIGHTS = {
    "float": lambda rng: rng.uniform(0.1, 5.0),
    "int": lambda rng: float(rng.randint(1, 3)),
    "int0": lambda rng: float(rng.randint(0, 2)),
}


def _frozen_sweep_tables(vec, src_idx, dest_idx_rows, stats):
    """The sweep as it was before the padded expansion: the oracle."""
    n = vec.csr.num_nodes
    rows = len(src_idx)
    offsets, targets, weights, deg = (
        vec.offsets, vec.targets, vec.weights, vec.deg,
    )
    dist = np.full((rows, n), np.inf)
    flat = dist.ravel()
    row_ids = np.arange(rows)
    dist[row_ids, src_idx] = 0.0
    frontier = row_ids * n + src_idx
    width = max(1, max(len(d) for d in dest_idx_rows))
    dest_pad = np.empty((rows, width), dtype=np.int64)
    for i, dests in enumerate(dest_idx_rows):
        pad = dests[0] if dests else int(src_idx[i])
        dest_pad[i, : len(dests)] = dests
        dest_pad[i, len(dests):] = pad
    slot = np.empty(rows * n, dtype=np.int64)
    settled = relaxed = 0
    pushes = rows
    maxd = 0.0
    while frontier.size:
        f_node = frontier % n
        entry_vals = flat[frontier]
        settled += int(frontier.size)
        wave_max = float(entry_vals.max())
        if wave_max > maxd:
            maxd = wave_max
        d_e = deg[f_node]
        total = int(d_e.sum())
        relaxed += total
        if total == 0:
            break
        prefix = np.concatenate(([0], np.cumsum(d_e)[:-1]))
        e_idx = np.repeat(offsets[f_node] - prefix, d_e) + np.arange(total)
        cand = np.repeat(entry_vals, d_e) + weights[e_idx]
        key = np.repeat(frontier - f_node, d_e) + targets[e_idx]
        better_than = cand < flat[key]
        if not better_than.any():
            break
        cand = cand[better_than]
        key = key[better_than]
        np.minimum.at(flat, key, cand)
        pos = np.arange(key.size)
        slot[key] = pos
        improved = key[slot[key] == pos]
        better = flat[improved]
        pushes += int(improved.size)
        caps = dist[row_ids[:, None], dest_pad].max(axis=1)
        frontier = improved[better < caps[improved // n]]
    stats.settled_nodes += settled
    stats.relaxed_edges += relaxed
    stats.heap_pushes += pushes
    if maxd > stats.max_settled_distance:
        stats.max_settled_distance = maxd
    return dist


def _counters(stats: SearchStats) -> tuple:
    return (
        stats.settled_nodes,
        stats.relaxed_edges,
        stats.heap_pushes,
        stats.max_settled_distance,
    )


@st.composite
def sweep_networks(draw, shape):
    """A random, star or grid-like map with the drawn weight kind."""
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    weight = _WEIGHTS[draw(st.sampled_from(sorted(_WEIGHTS)))]
    net = RoadNetwork(directed=draw(st.booleans()))
    if shape == "grid":
        side = draw(st.integers(min_value=2, max_value=7))
        for node in range(side * side):
            net.add_node(node, node % side, node // side)
        for node in range(side * side):
            right, down = node + 1, node + side
            if right % side:
                net.add_edge(node, right, weight(rng))
            if down < side * side:
                net.add_edge(node, down, weight(rng))
        return net
    n = draw(st.integers(min_value=2, max_value=28))
    for node in range(n):
        net.add_node(node, rng.uniform(0, 10), rng.uniform(0, 10))
    extra = 2.0
    if shape == "star":
        extra = 0.5
        for node in range(1, n):
            net.add_edge(0, node, weight(rng))
    for _ in range(int(draw(st.floats(min_value=0.0, max_value=extra)) * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not net.has_edge(u, v):
            net.add_edge(u, v, weight(rng))
    return net


def _rows(draw, n):
    """Sources (repeats allowed) and their destination rows (maybe empty)."""
    node = st.integers(min_value=0, max_value=n - 1)
    sources = draw(st.lists(node, min_size=1, max_size=5))
    dests = [draw(st.lists(node, max_size=4)) for _ in sources]
    return np.array(sources, dtype=np.int64), dests


def _assert_same_sweep(vec, src_idx, dest_rows):
    old, new = SearchStats(), SearchStats()
    expected = _frozen_sweep_tables(vec, src_idx, dest_rows, old)
    table = _sweep_tables(vec, src_idx, dest_rows, new)
    assert table.tobytes() == expected.tobytes()
    assert _counters(new) == _counters(old)


@pytest.mark.parametrize("shape", ["random", "star", "grid"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_sweep_matches_frozen_oracle(shape, data):
    net = data.draw(sweep_networks(shape))
    vec = VecGraph(csr_snapshot(net))
    if shape == "star" and vec.csr.num_nodes >= 8:
        assert not vec.padded  # a hub this wide takes the CSR expansion
    if shape == "grid":
        assert vec.padded
    src_idx, dest_rows = _rows(data.draw, vec.csr.num_nodes)
    _assert_same_sweep(vec, src_idx, dest_rows)


def test_counters_accumulate_into_given_stats():
    vec = VecGraph(csr_snapshot(grid_network(6, 6, perturbation=0.2, seed=3)))
    src_idx = np.array([0, 35, 0], dtype=np.int64)
    dest_rows = [[35, 20], [], [7]]
    old, new = SearchStats(), SearchStats()
    for _ in range(2):
        _frozen_sweep_tables(vec, src_idx, dest_rows, old)
        _sweep_tables(vec, src_idx, dest_rows, new)
    assert _counters(new) == _counters(old)


def test_long_sweep_folds_counters_exactly():
    # far more waves than the sweep buffers between counter folds
    net = grid_network(30, 30, perturbation=0.3, seed=5)
    vec = VecGraph(csr_snapshot(net))
    _assert_same_sweep(
        vec, np.array([0, 899, 450], dtype=np.int64), [[899], [0], [0, 899]]
    )


def test_scale_free_snapshot_never_builds_padded_tables(monkeypatch):
    vec = vec_view(csr_snapshot(scale_free_network(2000, seed=3)))
    assert not vec.padded

    def fail(self):
        raise AssertionError("padded tables built for a skewed snapshot")

    monkeypatch.setattr(VecGraph, "neighbour_tables", fail)
    nodes = sorted(vec.csr.node_ids)
    rows = vec_batch_paths(
        None, nodes[:4], [nodes[-3:]] * 4, vec=vec, strict=False
    )
    assert [len(row) for row in rows] == [3, 3, 3, 3]


def test_padded_tables_hold_every_arc_in_csr_order():
    net = grid_network(5, 4, perturbation=0.2, seed=9)
    vec = VecGraph(csr_snapshot(net))
    assert vec.padded
    nbr, nbr_w = vec.neighbour_tables()
    assert vec.neighbour_tables()[0] is nbr  # built once
    assert nbr.shape == nbr_w.shape == (len(vec.deg), int(vec.deg.max()))
    for u in range(len(vec.deg)):
        lo, hi = vec.offsets[u], vec.offsets[u + 1]
        k = hi - lo
        assert nbr[u, :k].tolist() == vec.targets[lo:hi].tolist()
        assert nbr_w[u, :k].tobytes() == vec.weights[lo:hi].tobytes()
        assert (nbr[u, k:] == 0).all() and np.isinf(nbr_w[u, k:]).all()
