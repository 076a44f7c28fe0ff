"""Property tests: the overlay's boundary-phase mode never shows in an answer.

``OverlayGraph.many_to_many`` answers a ``|S| x |T|`` table either with
one goal-directed point sweep per pair (few destinations, at most a
handful of arcs below their straight-line length) or with one shared
sweep per source that stops at the last destination-cell boundary node.
A cache refill, a shard worker and the next epoch's overlay may each
pick differently for the same ``(s, t)``, so both modes — and
``route()``, which is the pair sweep alone — must return the same
table: pairs, distances equal to the dict ``dijkstra`` oracle, and on
tie-free (perturbed) weights the same node sequences and the same
floats.
"""

from __future__ import annotations

import math
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NoPathError
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.search import overlay as overlay_module
from repro.search.dijkstra import dijkstra_path
from repro.search.overlay import (
    MAX_UNDERCUT_ARCS,
    PAIR_SWEEP_MAX_TARGETS,
    build_overlay,
)
from repro.service.serving import ServingConfig, ServingStack

#: weight draws: at least the Euclidean length (metric, tie-free), the
#: same with a few edges far below it (goal direction has to allow for
#: them), free floats (non-metric, tie-free), small integers (ties
#: everywhere)
_WEIGHTS = {
    "metric": lambda rng, gap: gap * rng.uniform(1.0, 2.0),
    "shortcut": lambda rng, gap: gap
    * (rng.uniform(0.02, 0.9) if rng.random() < 0.05 else rng.uniform(1.0, 2.0)),
    "float": lambda rng, gap: rng.uniform(0.1, 5.0),
    "int": lambda rng, gap: float(rng.randint(1, 3)),
}


@st.composite
def networks(draw, max_nodes=40):
    """Random net: maybe directed, maybe disconnected, several cells."""
    n = draw(st.integers(min_value=4, max_value=max_nodes))
    rng = random.Random(draw(st.integers(min_value=0, max_value=10_000)))
    kind = draw(st.sampled_from(tuple(_WEIGHTS)))
    net = RoadNetwork(directed=draw(st.booleans()))
    for node in range(n):
        net.add_node(node, rng.uniform(0, 10), rng.uniform(0, 10))
    for _ in range(int(draw(st.floats(min_value=0.8, max_value=3.0)) * n)):
        u, v = rng.randrange(n), rng.randrange(n)
        if u != v and not net.has_edge(u, v):
            net.add_edge(u, v, _WEIGHTS[kind](rng, net.euclidean_distance(u, v)))
    return net, kind


def _endpoints(draw, net, max_size=PAIR_SWEEP_MAX_TARGETS + 3):
    """``|S|``, ``|T|`` on both sides of the crossover; overlaps allowed,
    so ``s == t`` and same-cell pairs occur."""
    nodes = sorted(net.nodes())
    size = st.integers(min_value=1, max_value=min(max_size, len(nodes)))
    sources = draw(st.permutations(nodes))[: draw(size)]
    destinations = draw(st.permutations(nodes))[: draw(size)]
    return list(sources), list(destinations)


def _table(overlay, sources, destinations, max_targets):
    """The table with the crossover moved: ``0`` forces shared sweeps,
    ``inf`` pair sweeps (where the weights allow goal direction)."""
    with mock.patch.object(
        overlay_module, "PAIR_SWEEP_MAX_TARGETS", max_targets
    ):
        return overlay.many_to_many(sources, destinations)


def _visible(table):
    return {
        pair: (path.source, path.destination, path.nodes, path.distance)
        for pair, path in table.items()
    }


def _assert_walk(net, path):
    assert sum(
        net.edge_weight(u, v) for u, v in zip(path.nodes, path.nodes[1:])
    ) == pytest.approx(path.distance, abs=1e-9)


def _check_modes(net, kind, overlay, sources, destinations):
    pairs = _table(overlay, sources, destinations, math.inf)
    sweep = _table(overlay, sources, destinations, 0)
    auto = _table(overlay, sources, destinations, PAIR_SWEEP_MAX_TARGETS)
    assert set(pairs) == set(sweep) == set(auto)
    for s in sources:
        for t in destinations:
            try:
                want = dijkstra_path(net, s, t)
            except NoPathError:
                assert (s, t) not in sweep
                with pytest.raises(NoPathError):
                    overlay.route(s, t)
                continue
            routed = overlay.route(s, t)
            for got in (pairs[(s, t)], sweep[(s, t)], auto[(s, t)], routed):
                assert (got.source, got.destination) == (s, t)
                assert got.distance == pytest.approx(want.distance, abs=1e-9)
                _assert_walk(net, got)
    if kind != "int":
        # unique shortest paths: nothing at all may tell the modes apart
        assert _visible(pairs) == _visible(sweep) == _visible(auto)
        for (s, t), path in sweep.items():
            routed = overlay.route(s, t)
            assert routed.nodes == path.nodes == dijkstra_path(net, s, t).nodes
            assert routed.distance == path.distance


@given(
    drawn=networks(),
    capacity=st.integers(min_value=3, max_value=12),
    max_arcs=st.sampled_from([MAX_UNDERCUT_ARCS, 5 * MAX_UNDERCUT_ARCS]),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_pair_sweeps_shared_sweeps_and_auto_agree(
    drawn, capacity, max_arcs, data
):
    """``max_arcs`` above the shipped cap keeps sweeps goal-directed on
    nets where chains of undercut arcs decide the bound."""
    net, kind = drawn
    with mock.patch.object(overlay_module, "MAX_UNDERCUT_ARCS", max_arcs):
        overlay = build_overlay(net, cell_capacity=capacity)
    assert overlay.metric == (overlay.undercut == {})
    assert overlay.metric or kind != "metric"
    assert (overlay._shortcuts is not None) == (len(overlay.undercut) <= max_arcs)
    sources, destinations = _endpoints(data.draw, net)
    _check_modes(net, kind, overlay, sources, destinations)


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_same_cell_pairs_are_bounded_by_the_direct_path(data):
    """Both endpoints in one cell: the intra-cell path bounds the sweep,
    yet a detour through a neighbouring cell must still win when it is
    shorter."""
    net = grid_network(8, 8, perturbation=0.1, seed=data.draw(st.integers(0, 50)))
    overlay = build_overlay(net, cell_capacity=16)
    cell = data.draw(st.sampled_from(overlay.partition.cells))
    s, t = data.draw(st.permutations(cell))[:2]
    # make the straight intra-cell route expensive so leaving pays off
    inner = dijkstra_path(net, s, t).nodes
    net.add_edge(inner[0], inner[1], 50.0)
    overlay = overlay.recustomized(overlay.touched_cells([inner[:2]]))
    _check_modes(net, "metric", overlay, [s, t], [t, s])


def test_undercut_edges_keep_goal_direction_and_stay_exact():
    """A reweight below an edge's Euclidean length makes the straight
    line alone inadmissible: the installed overlay drops ``metric``,
    lists the arcs, keeps answering pair by pair with the corrected
    bound, and is oracle-exact; past ``MAX_UNDERCUT_ARCS`` the next
    query silently takes shared sweeps, and restoring the weights
    brings ``metric`` back."""
    net = grid_network(10, 10, perturbation=0.1, seed=4)
    with ServingStack.from_config(
        net, ServingConfig(engine="overlay-csr")
    ) as stack:
        before = stack.warm()
        assert before.metric and before._pairwise([0, 1])
        inner = [
            (u, v, w) for u, v, w in net.edges() if before.touched_cells([(u, v)])
        ]
        u, v, w = inner[0]
        stack.reweight([(u, v, w * 0.05)], epoch=True)
        after = stack.warm()
        assert after is not before and not after.metric
        assert after.undercut == {(u, v): w * 0.05, (v, u): w * 0.05}
        assert after._pairwise([0, 1])
        sources, destinations = [u, 0, 57], [v, 99, 42]
        _check_modes(stack.network, "float", after, sources, destinations)
        # the shortcut is really used, so a stale bound would have shown
        assert after.route(u, v).distance == pytest.approx(w * 0.05)

        more = inner[1 : 1 + MAX_UNDERCUT_ARCS // 2]
        stack.reweight([(a, b, c * 0.5) for a, b, c in more], epoch=True)
        many = stack.warm()
        assert len(many.undercut) > MAX_UNDERCUT_ARCS
        assert not many._pairwise([0, 1])
        _check_modes(stack.network, "float", many, sources, destinations)

        stack.reweight(inner[: 1 + len(more)], epoch=True)
        assert stack.warm().metric and stack.warm()._pairwise([0, 1])
