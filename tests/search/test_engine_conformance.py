"""Engine-conformance harness: every registered engine vs. the oracle.

One hypothesis-driven differential suite auto-parametrized over every
entry in :data:`repro.search.ENGINES`, so a newly registered engine gets
parity coverage for free — no per-engine oracle test to copy-paste.
Three contracts are locked down on random directed, disconnected, and
multi-component networks:

* **point queries** — ``engine.route`` returns the oracle's distance
  over a walkable path, or raises :class:`NoPathError` exactly when the
  oracle does;
* **MSMD batches** — ``engine.make_processor().process`` answers every
  ``S x T`` pair with the oracle's distance in wire order, or raises
  :class:`NoPathError` when the oracle finds an unreachable pair;
* **union passes** — ``process_union`` over any batch of set queries
  slices back tables byte-identical (pairs, order, nodes, distances) to
  solo ``process`` calls, matching errors per query and never counting
  shared work twice — the exactness invariant the serving layer's
  coalescing (``ServingConfig(coalesce=True)``) is built on.

The oracle is plain Dijkstra, itself cross-checked against networkx in
``tests/search/test_dijkstra.py``.  Engines whose correctness rests on
an admissible Euclidean heuristic (``_METRIC_ONLY``, today just
``astar`` — see the inadmissibility caveat in
:data:`repro.search.ENGINES`) are fed Euclidean-consistent weights
(``weight >= straight-line distance``); every other engine is also
exercised on arbitrary positive weights, the harsher input space.  A
future heuristic engine must add itself to ``_METRIC_ONLY``; everything
else conforms (or fails) with zero new test code.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NoPathError, ReproError
from repro.network.graph import RoadNetwork
from repro.search import ENGINES, get_engine
from repro.search.dijkstra import dijkstra_path

ENGINE_NAMES = sorted(ENGINES)

#: engines only exact on Euclidean-consistent weights (admissible h)
_METRIC_ONLY = {"astar"}


def _add_edge(net: RoadNetwork, rng: random.Random, u, v, metric: bool) -> None:
    if u == v or net.has_edge(u, v):
        return
    if metric:
        weight = net.euclidean_distance(u, v) * rng.uniform(1.0, 2.0) + 1e-9
    else:
        weight = rng.uniform(0.1, 5.0)
    net.add_edge(u, v, weight)


@st.composite
def conformance_networks(draw, metric, min_nodes=2, max_nodes=18):
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
        _add_edge(net, rng, rng.randrange(n), rng.randrange(n), metric)
    return net


@st.composite
def multi_component_networks(draw, metric):
    """2-3 separately connected islands with no edges between them."""
    num_components = draw(st.integers(min_value=2, max_value=3))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    directed = draw(st.booleans())
    rng = random.Random(seed)
    net = RoadNetwork(directed=directed)
    node = 0
    for island in range(num_components):
        size = draw(st.integers(min_value=2, max_value=6))
        offset = island * 100.0  # islands never overlap geometrically
        members = []
        for _ in range(size):
            net.add_node(node, offset + rng.uniform(0, 10), rng.uniform(0, 10))
            members.append(node)
            node += 1
        for current in members[1:]:  # spanning tree: island is connected
            anchor = rng.choice(members[: members.index(current)])
            _add_edge(net, rng, current, anchor, metric)
            if directed:
                _add_edge(net, rng, anchor, current, metric)
        for _ in range(size):
            _add_edge(
                net, rng, rng.choice(members), rng.choice(members), metric
            )
    return net


def _networks_for(name: str):
    """The network strategy an engine is held to.

    Metric weights for heuristic engines; metric *or* arbitrary
    positive weights for everything else.
    """
    metric_choices = [True] if name in _METRIC_ONLY else [True, False]
    return st.booleans().flatmap(
        lambda multi: st.sampled_from(metric_choices).flatmap(
            lambda metric: (
                multi_component_networks(metric)
                if multi
                else conformance_networks(metric)
            )
        )
    )


def _oracle_distance(net, s, t):
    try:
        return dijkstra_path(net, s, t).distance
    except NoPathError:
        return None


def _assert_walkable(net, path) -> None:
    total = 0.0
    for u, v in path.edges():
        assert net.has_edge(u, v), "path uses a missing (or one-way) edge"
        total += net.edge_weight(u, v)
    assert abs(total - path.distance) < 1e-9


@pytest.mark.parametrize("name", ENGINE_NAMES)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_point_queries_conform(name, data):
    """route() matches the oracle's distance/reachability on every pair."""
    net = data.draw(_networks_for(name))
    engine = get_engine(name)
    context = engine.prepare(net)
    nodes = list(net.nodes())
    for _ in range(4):
        s = data.draw(st.sampled_from(nodes))
        t = data.draw(st.sampled_from(nodes))
        expected = _oracle_distance(net, s, t)
        if expected is None:
            with pytest.raises(NoPathError):
                engine.route(net, s, t, context=context)
            continue
        path = engine.route(net, s, t, context=context)
        assert abs(path.distance - expected) < 1e-9
        assert path.nodes[0] == s and path.nodes[-1] == t
        _assert_walkable(net, path)


@pytest.mark.parametrize("name", ENGINE_NAMES)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_msmd_batches_conform(name, data):
    """process() answers S x T in wire order with oracle distances."""
    net = data.draw(_networks_for(name))
    engine = get_engine(name)
    processor = engine.make_processor()
    nodes = list(net.nodes())
    sources = data.draw(
        st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True)
    )
    destinations = data.draw(
        st.lists(st.sampled_from(nodes), min_size=1, max_size=3, unique=True)
    )
    expected = {
        (s, t): _oracle_distance(net, s, t)
        for s in sources
        for t in destinations
    }
    if any(distance is None for distance in expected.values()):
        with pytest.raises(NoPathError):
            processor.process(net, sources, destinations)
        return
    result = processor.process(net, sources, destinations)
    assert list(result.paths) == [
        (s, t) for s in sources for t in destinations
    ], "pair table must be in the query's own wire order"
    for pair, path in result.paths.items():
        assert abs(path.distance - expected[pair]) < 1e-9
        _assert_walkable(net, path)


@pytest.mark.parametrize("name", ENGINE_NAMES)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_union_passes_conform(name, data):
    """process_union() slices back exactly what solo process() returns."""
    net = data.draw(_networks_for(name))
    engine = get_engine(name)
    nodes = list(net.nodes())
    set_queries = data.draw(
        st.lists(
            st.tuples(
                st.lists(
                    st.sampled_from(nodes), min_size=1, max_size=3, unique=True
                ),
                st.lists(
                    st.sampled_from(nodes), min_size=1, max_size=3, unique=True
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    union = engine.make_processor().process_union(net, set_queries)
    assert len(union.tables) == len(set_queries)
    solo_processor = engine.make_processor()
    settled_total = 0
    for (sources, destinations), table, error in zip(
        set_queries, union.tables, union.errors
    ):
        try:
            solo = solo_processor.process(net, list(sources), list(destinations))
        except ReproError as solo_error:
            assert table is None
            assert type(error) is type(solo_error)
            continue
        assert error is None
        assert list(table.paths) == list(solo.paths)
        for pair, solo_path in solo.paths.items():
            assert table.paths[pair].nodes == solo_path.nodes
            assert table.paths[pair].distance == solo_path.distance
        settled_total += table.stats.settled_nodes
    # Shared work is attributed exactly once across the sliced tables
    # (when every query fails there is no table left to carry it).
    if any(error is None for error in union.errors):
        assert settled_total == union.union_stats.settled_nodes
    else:
        assert settled_total == 0


@pytest.mark.parametrize("name", ENGINE_NAMES)
def test_trace_settled_counts_match_server_counters(name):
    """Trace-based regression check: every engine's span tree agrees
    with the existing load counters.

    Serves a batch of distinct obfuscated queries through a traced
    :class:`~repro.service.serving.ServingStack` and asserts that the
    ``settled_nodes`` attributes of the ``engine.process`` spans sum to
    exactly ``server.counters.stats.settled_nodes`` — the two
    accounting paths (per-result stats merged by ``_account`` vs. span
    attributes stamped on worker threads) can never drift apart without
    this failing for the drifting engine.
    """
    from repro.core.query import ObfuscatedPathQuery
    from repro.obs.trace import Tracer
    from repro.service.serving import ServingConfig, ServingStack

    # Euclidean-consistent weights (the harness's metric convention)
    # keep the heuristic engines exact alongside everything else, and
    # the jitter avoids the all-ties weight landscape.
    rng = random.Random(4)
    net = RoadNetwork()
    side = 6
    for i in range(side * side):
        net.add_node(i, float(i % side), float(i // side))
    for i in range(side * side):
        if i % side != side - 1:
            _add_edge(net, rng, i, i + 1, metric=True)
        if i + side < side * side:
            _add_edge(net, rng, i, i + side, metric=True)
    nodes = sorted(net.nodes())
    queries = [
        ObfuscatedPathQuery(
            tuple(rng.sample(nodes, 2)), tuple(rng.sample(nodes, 2))
        )
        for _ in range(6)
    ]
    assert len({(q.sources, q.destinations) for q in queries}) == len(queries)

    tracer = Tracer()
    with ServingStack.from_config(
        net,
        ServingConfig(engine=name, max_workers=2),
        tracer=tracer,
    ) as stack:
        stack.answer_batch(queries)
    spans = [
        span
        for root in tracer.roots
        for span in root.walk()
        if span.name == "engine.process"
    ]
    assert len(spans) == len(queries)
    traced_settled = sum(span.attrs["settled_nodes"] for span in spans)
    assert traced_settled == stack.server.counters.stats.settled_nodes
