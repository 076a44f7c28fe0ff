"""Property tests: an O(change) epoch install equals a from-scratch one.

``ServingStack.reweight(epoch=True)`` copies the network structurally
and derives the next fingerprint from the changed node rows only.
Whatever the sequence of traffic updates — weights put back, batches
of several edges, weights far below the geometry — every epoch the
stack serves must be indistinguishable from replaying the updates on a
fresh copy of the map: same fingerprint string, and every array of the
``dijkstra-csr`` snapshot it answers from equal to
``CSRGraph.from_network`` of the replayed map.  And the stack's server
must serve that epoch: it holds the stack's network and answers
byte-identically to the stack.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.query import ObfuscatedPathQuery
from repro.network.csr import CSRGraph
from repro.network.generators import grid_network, one_way_grid_network
from repro.service.cache import network_fingerprint, updated_fingerprint
from repro.service.serving import ServingConfig, ServingStack
from repro.service.wire import RouteResponse

_NETS = {
    "grid": grid_network(9, 9, perturbation=0.1, seed=31),
    "one-way": one_way_grid_network(8, 8, seed=5),
}
_EDGES = {name: sorted((u, v) for u, v, _ in net.edges())
          for name, net in _NETS.items()}
#: weight factors: heavier traffic, free flow, below the geometry and
#: ``None`` = put the original weight back
_FACTORS = st.sampled_from([1.5, 3.0, 0.8, 0.2, None])


@st.composite
def update_sequences(draw):
    name = draw(st.sampled_from(sorted(_NETS)))
    edge = st.integers(min_value=0, max_value=len(_EDGES[name]) - 1)
    batches = draw(
        st.lists(
            st.lists(st.tuples(edge, _FACTORS), min_size=1, max_size=5),
            min_size=1,
            max_size=6,
        )
    )
    return name, batches


def _changes(base, edges, batch):
    """Drawn ``(edge index, factor)`` pairs as ``(u, v, weight)`` changes."""
    changes = []
    for index, factor in batch:
        u, v = edges[index]
        original = base.edge_weight(u, v)
        changes.append((u, v, original if factor is None else original * factor))
    return changes


#: every array of a CSR snapshot
_CSR_ARRAYS = ("node_ids", "index_of", "offsets", "targets", "weights",
               "roffsets", "rtargets", "rweights", "xs", "ys", "directed")


def _assert_scratch_equal(stack, outcome, replayed):
    assert outcome.fingerprint == network_fingerprint(replayed)
    # read at the epoch first: warm() then returns the snapshot it used
    nodes = sorted(replayed.nodes())
    stack.answer(ObfuscatedPathQuery((nodes[0],), (nodes[-1],)))
    served = stack.warm()
    scratch = CSRGraph.from_network(replayed)
    for name in _CSR_ARRAYS:
        assert getattr(served, name) == getattr(scratch, name), name


@given(drawn=update_sequences())
@settings(max_examples=40, deadline=None)
def test_every_installed_epoch_equals_a_scratch_build(drawn):
    name, batches = drawn
    base, edges = _NETS[name], _EDGES[name]
    replayed = base.copy()
    with ServingStack.from_config(
        base.copy(), ServingConfig(engine="dijkstra-csr")
    ) as stack:
        stack.warm()
        for batch in batches:
            before = stack.network
            changes = _changes(base, edges, batch)
            outcome = stack.reweight(changes, epoch=True)
            assert stack.network is not before
            for u, v, w in changes:
                replayed.add_edge(u, v, w)
            _assert_scratch_equal(stack, outcome, replayed)
    # the serving copy took every update; the map it was cut from, none
    assert network_fingerprint(base) == network_fingerprint(_NETS[name])


@given(drawn=update_sequences())
@settings(max_examples=40, deadline=None)
def test_row_sum_fingerprint_is_incremental_and_content_addressed(drawn):
    name, batches = drawn
    base, edges = _NETS[name], _EDGES[name]
    current, fingerprint = base, network_fingerprint(base)
    for batch in batches:
        after = current.copy()
        rows = []
        for index, factor in batch:
            u, v = edges[index]
            after.add_edge(u, v, base.edge_weight(u, v) * (factor or 1.0))
            rows += [u, v]
        fingerprint = updated_fingerprint(fingerprint, current, after, rows)
        assert fingerprint == network_fingerprint(after)
        # insertion order is not content: a rebuilt twin hashes the same
        twin = type(after)(directed=after.directed)
        for node in reversed(list(after.nodes())):
            p = after.position(node)
            twin.add_node(node, p.x, p.y)
        for u, v, w in reversed(list(after.edges())):
            twin.add_edge(u, v, w)
        assert network_fingerprint(twin) == fingerprint
        current = after


@pytest.mark.parametrize("engine", ["dijkstra-csr", "overlay-csr"])
@given(
    drawn=update_sequences(),
    picks=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
        min_size=1, max_size=3,
    ),
)
@settings(max_examples=20, deadline=None)
def test_the_server_serves_the_stacks_epoch(engine, drawn, picks):
    """After every epoch the stack's server holds the stack's network and
    answers ``Q(S, T)`` byte-identically to the stack's own answer."""
    name, batches = drawn
    base, edges = _NETS[name], _EDGES[name]
    nodes = sorted(base.nodes())
    queries = [
        ObfuscatedPathQuery(
            (nodes[a % len(nodes)], nodes[(a + 7) % len(nodes)]),
            (nodes[b % len(nodes)], nodes[(b + 11) % len(nodes)]),
        )
        for a, b in picks
    ]
    with ServingStack.from_config(
        base.copy(), ServingConfig(engine=engine)
    ) as stack:
        for batch in batches:
            stack.reweight(_changes(base, edges, batch))
            assert stack.server.network is stack.network
            for query in queries:
                direct = RouteResponse.from_server(stack.server.answer(query))
                served = RouteResponse.from_server(stack.answer(query))
                assert direct.payload_json() == served.payload_json()

