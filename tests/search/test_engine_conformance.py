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
  shared work twice — the exactness invariant the serving layer's one
  evaluation path (a batch's distinct misses are one union pass) is
  built on.

The oracle is plain Dijkstra, itself cross-checked against networkx in
``tests/search/test_dijkstra.py``.  Every engine is held to two weight
regimes: arbitrary positive floats, and a **tie-heavy** one — integer
weights drawn from ``{0, 1, 2, 3}`` (zero-weight arcs included) on the
same random directed and disconnected maps, plus unit-weight grids,
where nearly every pair has many shortest paths and an engine's
tie-breaking is all that tells them apart.  The tie tier also reads its
maps back from a DIMACS ``.gr``/``.co`` round trip, and a perturbed
10x10 grid gives float paths long enough for the order of the sum to
show in the last bit.  Distances must equal the oracle's exactly, and
every returned path must be a walk whose distance is the left fold of
its arc weights from the source — the label Dijkstra assigns — so an
engine's distance never depends on how it found the path.  Which of the tied paths an engine picks is its
own business.  A newly registered engine conforms (or fails) with zero
new test code.
"""

from __future__ import annotations

import pathlib
import random
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import NoPathError, ReproError
from repro.network.generators import grid_network
from repro.network.graph import RoadNetwork
from repro.network.io import read_dimacs, write_dimacs
from repro.search import ENGINES, get_engine
from repro.search.dijkstra import dijkstra_path

ENGINE_NAMES = sorted(ENGINES)

#: weight regimes of the random maps: arbitrary positive floats, or
#: small integers with zero-weight arcs (many tied shortest paths)
WEIGHT_KINDS = ("float", "ties")


def _add_edge(
    net: RoadNetwork, rng: random.Random, u, v, weights: str
) -> None:
    if u == v or net.has_edge(u, v):
        return
    if weights == "ties":
        weight = rng.randrange(4)
    else:
        weight = rng.uniform(0.1, 5.0)
    net.add_edge(u, v, weight)


@st.composite
def conformance_networks(draw, weights, min_nodes=2, max_nodes=18):
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
        _add_edge(net, rng, rng.randrange(n), rng.randrange(n), weights)
    return net


@st.composite
def multi_component_networks(draw, weights):
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
            _add_edge(net, rng, current, anchor, weights)
            if directed:
                _add_edge(net, rng, anchor, current, weights)
        for _ in range(size):
            _add_edge(
                net, rng, rng.choice(members), rng.choice(members), weights
            )
    return net


def unit_grids():
    """A ``w x h`` grid with unit spacing and unit weights."""
    return st.builds(
        grid_network,
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=2, max_value=6),
    )


@st.composite
def dimacs_round_trips(draw):
    """A tie-heavy map written with ``write_dimacs`` and read back.

    Integer travel times on the 1-based node ids the format requires;
    an undirected map is written as both arcs of every edge and folded
    back into one edge on reading.
    """
    net = draw(
        st.one_of(
            conformance_networks("ties"), multi_component_networks("ties")
        )
    )
    renamed = RoadNetwork(directed=net.directed)
    for node in net.nodes():
        position = net.position(node)
        renamed.add_node(node + 1, position.x, position.y)
    for u, v, weight in net.edges():
        renamed.add_edge(u + 1, v + 1, weight)
    with tempfile.TemporaryDirectory() as tmp:
        gr, co = pathlib.Path(tmp, "map.gr"), pathlib.Path(tmp, "map.co")
        write_dimacs(renamed, gr, co)
        return read_dimacs(gr, co, directed=net.directed)


def _networks():
    """A random map under either weight regime, a unit grid, a
    tie-heavy map round-tripped through DIMACS, or a perturbed grid."""
    by_kind = {
        kind: st.one_of(
            conformance_networks(kind), multi_component_networks(kind)
        )
        for kind in WEIGHT_KINDS
    }
    by_kind["grid"] = unit_grids()
    by_kind["dimacs"] = dimacs_round_trips()
    # float paths long enough for a CH up-down meet sum to round
    # differently from the left fold
    by_kind["perturbed"] = st.just(
        grid_network(10, 10, perturbation=0.3, seed=5)
    )
    return st.sampled_from(list(by_kind)).flatmap(by_kind.__getitem__)


def _oracle_distance(net, s, t):
    try:
        return dijkstra_path(net, s, t).distance
    except NoPathError:
        return None


def _assert_walkable(net, path) -> None:
    """A walk whose distance is the left fold of its arc weights."""
    total = 0.0
    for u, v in path.edges():
        assert net.has_edge(u, v), "path uses a missing (or one-way) edge"
        total += net.edge_weight(u, v)
    assert total == path.distance


@pytest.mark.parametrize("name", ENGINE_NAMES)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_point_queries_conform(name, data):
    """route() matches the oracle's distance/reachability on every pair."""
    net = data.draw(_networks())
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
        assert path.nodes[0] == s and path.nodes[-1] == t
        _assert_walkable(net, path)
        assert path.distance == expected


@pytest.mark.parametrize("name", ENGINE_NAMES)
@given(data=st.data())
@settings(max_examples=20, deadline=None)
def test_msmd_batches_conform(name, data):
    """process() answers S x T in wire order with oracle distances."""
    net = data.draw(_networks())
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
        _assert_walkable(net, path)
        assert path.distance == expected[pair]


@pytest.mark.parametrize("name", ENGINE_NAMES)
@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_union_passes_conform(name, data):
    """process_union() slices back exactly what solo process() returns."""
    net = data.draw(_networks())
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

    Serves a batch of distinct obfuscated queries (one ``engine.union``
    span), then one more query alone (one ``engine.process`` span),
    through a traced :class:`~repro.service.serving.ServingStack` and
    asserts that the spans' ``settled_nodes`` attributes equal
    ``server.counters.stats.settled_nodes`` after each — the two
    accounting paths (per-result stats merged by ``_account`` vs. span
    attributes) can never drift apart without this failing for the
    drifting engine.
    """
    from repro.core.query import ObfuscatedPathQuery
    from repro.obs.trace import Tracer
    from repro.service.serving import ServingConfig, ServingStack

    # The jitter avoids the all-ties weight landscape.
    rng = random.Random(4)
    net = RoadNetwork()
    side = 6
    for i in range(side * side):
        net.add_node(i, float(i % side), float(i // side))

    def add(u, v):
        weight = net.euclidean_distance(u, v) * rng.uniform(1.0, 2.0)
        net.add_edge(u, v, weight + 1e-9)

    for i in range(side * side):
        if i % side != side - 1:
            add(i, i + 1)
        if i + side < side * side:
            add(i, i + side)
    nodes = sorted(net.nodes())
    queries = [
        ObfuscatedPathQuery(
            tuple(rng.sample(nodes, 2)), tuple(rng.sample(nodes, 2))
        )
        for _ in range(7)
    ]
    assert len({(q.sources, q.destinations) for q in queries}) == len(queries)

    def kernel_spans():
        return [
            span
            for root in tracer.roots
            for span in root.walk()
            if span.name.startswith("engine.")
        ]

    tracer = Tracer()
    with ServingStack.from_config(
        net, ServingConfig(engine=name), tracer=tracer
    ) as stack:
        stack.answer_batch(queries[:-1])
        (union,) = kernel_spans()
        assert union.name == "engine.union"
        assert union.attrs["num_queries"] == len(queries) - 1
        settled = stack.server.counters.stats.settled_nodes
        assert union.attrs["settled_nodes"] == settled
        stack.answer_batch(queries[-1:])
        (_, solo) = kernel_spans()
    assert solo.name == "engine.process"
    assert (
        union.attrs["settled_nodes"] + solo.attrs["settled_nodes"]
        == stack.server.counters.stats.settled_nodes
    )
