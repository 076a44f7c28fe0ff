"""Property tests: ``dijkstra-csr``'s kernel choice never shows in an answer.

``CSRSharedTreeProcessor`` grows a query's trees either in the scalar
heap loop or in one batched numpy sweep, by a per-query estimate.  A
union pass, a cache refill and a shard worker may each choose
differently for the same ``(s, t)`` pair, so the two kernels must agree
on everything a caller can see: pairs, wire order, distances, *node
sequences* (shortest-path ties included) and the error raised.  The
networks here are built to be tie-heavy — small integer weights, zero
weights, one-way arcs, islands — which is where a label-correcting sweep
and a label-setting heap part ways unless path reconstruction is
canonical.

Needs numpy (the CI leg that installs it runs this file); the
numpy-less behaviour is pinned in ``tests/search/test_kernels.py``.
"""

from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ReproError
from repro.network.csr import csr_snapshot
from repro.network.graph import RoadNetwork
from repro.search import kernels
from repro.search.kernels import CSRSharedTreeProcessor
from repro.search.vectorized import (
    estimated_settled,
    numpy_available,
    vec_batch_paths,
    vec_view,
)

pytestmark = pytest.mark.skipif(
    not numpy_available(), reason="numpy not installed"
)

#: weight draws, from tie-free to tie-saturated
_WEIGHTS = {
    "float": lambda rng: rng.uniform(0.1, 5.0),
    "int": lambda rng: float(rng.randint(1, 3)),
    "int0": lambda rng: float(rng.randint(0, 2)),
}


@st.composite
def tie_heavy_networks(draw, kinds=tuple(_WEIGHTS), max_nodes=28):
    """Random net: maybe directed, maybe disconnected, maybe all ties."""
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    weight = _WEIGHTS[draw(st.sampled_from(kinds))]
    net = RoadNetwork(directed=draw(st.booleans()))
    for node in range(n):
        net.add_node(node, rng.uniform(0, 10), rng.uniform(0, 10))
    for _ in range(int(draw(st.floats(min_value=0.5, max_value=3.0)) * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not net.has_edge(u, v):
            net.add_edge(u, v, weight(rng))
    return net


def _endpoints(draw, net, max_size=4):
    nodes = sorted(net.nodes())
    size = st.integers(min_value=1, max_value=min(max_size, len(nodes)))
    sources = draw(st.permutations(nodes))[: draw(size)]
    destinations = draw(st.permutations(nodes))[: draw(size)]
    return list(sources), list(destinations)


def _processor(threshold: float) -> CSRSharedTreeProcessor:
    processor = CSRSharedTreeProcessor()
    processor.batch_min_settled = threshold
    return processor


def _visible(table):
    """Everything of an ``MSMDResult`` a caller can tell apart."""
    return [
        (pair, path.source, path.destination, path.nodes, path.distance)
        for pair, path in table.paths.items()
    ]


def _outcome(processor, net, sources, destinations):
    try:
        return _visible(processor.process(net, sources, destinations))
    except ReproError as exc:
        return (type(exc), exc.args)


@given(net=tie_heavy_networks(), data=st.data())
@settings(max_examples=150, deadline=None)
def test_scalar_batched_and_auto_agree_byte_for_byte(net, data):
    sources, destinations = _endpoints(data.draw, net)
    # anything in [0, 2n] puts auto on either side of the query's estimate
    auto = data.draw(st.floats(min_value=0.0, max_value=2.0 * net.num_nodes))
    want = _outcome(_processor(math.inf), net, sources, destinations)
    assert _outcome(_processor(0), net, sources, destinations) == want
    assert _outcome(_processor(auto), net, sources, destinations) == want


@given(net=tie_heavy_networks(), data=st.data())
@settings(max_examples=100, deadline=None)
def test_union_slices_match_solo_answers_across_kernels(net, data):
    """A union that batches returns what scalar solo queries return.

    The threshold sits just above the largest solo estimate, so every
    solo query stays scalar while the union — whose rows carry more
    destinations each — is free to cross it; forced-batched unions and
    forced-scalar solos are compared too.
    """
    queries = [
        _endpoints(data.draw, net, max_size=3)
        for _ in range(data.draw(st.integers(min_value=1, max_value=4)))
    ]
    vec = vec_view(csr_snapshot(net))
    above_solo = 1e-9 + max(
        estimated_settled(vec, s, [t] * len(s)) for s, t in queries
    )
    solo = _processor(math.inf)
    want = [_outcome(solo, net, s, t) for s, t in queries]
    for threshold in (above_solo, 0, math.inf):
        union = _processor(threshold).process_union(net, queries)
        got = [
            _visible(table) if error is None else (type(error), error.args)
            for table, error in zip(union.tables, union.errors)
        ]
        assert got == want


def test_a_zero_weight_arc_keeps_every_form_on_the_scalar_loop(monkeypatch):
    """Inside a zero-weight plateau the heap's parents depend on push
    timing, which labels cannot reproduce: such snapshots never batch,
    not even in the always-batched form."""
    net = RoadNetwork(directed=True)
    for node in range(4):
        net.add_node(node, float(node), 0.0)
    for u, v, w in ((0, 1, 1.0), (1, 2, 0.0), (2, 1, 0.0), (2, 3, 1.0)):
        net.add_edge(u, v, w)
    assert not vec_view(csr_snapshot(net)).strict

    def fail(*args, **kwargs):
        raise AssertionError("batched a non-strict snapshot")

    monkeypatch.setattr(kernels, "vec_batch_paths", fail)
    for threshold in (0, 1.0, math.inf):
        table = _processor(threshold).process(net, [0], [3])
        assert table.paths[(0, 3)].nodes == (0, 1, 2, 3)


@given(net=tie_heavy_networks(kinds=("int0",)), data=st.data())
@settings(max_examples=100, deadline=None)
def test_the_raw_sweep_walks_zero_weight_plateaus(net, data):
    """Called directly on zero-weight arcs (cycles included) the batched
    kernel still returns exact, walkable, cycle-free paths."""
    sources, destinations = _endpoints(data.draw, net)
    vec = vec_view(csr_snapshot(net))
    assert not vec.strict or all(w > 0 for _, _, w in net.edges())
    want = [
        kernels.csr_dijkstra_to_many(net, s, destinations, strict=False)
        for s in sources
    ]
    got = vec_batch_paths(
        net, sources, [destinations] * len(sources), strict=False
    )
    for row, ref in zip(got, want):
        assert list(row) == [t for t in destinations if t in ref]
        for t, path in row.items():
            assert path.distance == ref[t].distance
            assert len(set(path.nodes)) == len(path.nodes)
            total = 0.0
            for u, v in path.edges():
                total += net.edge_weight(u, v)
            assert total == path.distance  # integer weights: exact


def test_union_really_picks_the_other_kernel(monkeypatch):
    """The deterministic witness behind the property above."""
    from repro.network.generators import grid_network

    net = grid_network(12, 12, seed=3)  # unit weights: ties everywhere
    # disjoint sources: the union's estimate is the sum of the solos'
    queries = [([0], [40, 27]), ([13], [66, 53]), ([26], [77])]
    vec = vec_view(csr_snapshot(net))
    threshold = 1.0 + max(
        estimated_settled(vec, s, [t] * len(s)) for s, t in queries
    )
    calls = []
    real = kernels.vec_batch_paths
    monkeypatch.setattr(
        kernels, "vec_batch_paths",
        lambda *a, **k: calls.append(len(a[1])) or real(*a, **k),
    )
    processor = _processor(threshold)
    solo = [_visible(processor.process(net, s, t)) for s, t in queries]
    assert calls == []  # every solo query took the scalar loop
    union = processor.process_union(net, queries)
    assert calls == [3]  # one sweep over the three distinct sources
    assert [_visible(table) for table in union.tables] == solo
