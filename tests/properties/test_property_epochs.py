"""Property tests: an O(change) epoch install equals a from-scratch one.

``ServingStack.reweight(epoch=True)`` copies the network structurally,
derives the next fingerprint from the changed node rows only and
re-flattens only the overlay cells a change can have touched.  Whatever
the sequence of traffic updates — cut edges, weights put back, batches
spanning cells, geometry undercut and restored — every installed epoch
must be indistinguishable from rebuilding everything from its snapshot:
same fingerprint string, same ``dumps_overlay`` text, same flat arrays,
same undercut arcs.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.network.generators import grid_network, one_way_grid_network
from repro.search.overlay import build_overlay, dumps_overlay
from repro.service.cache import network_fingerprint, updated_fingerprint
from repro.service.serving import ServingConfig, ServingStack

_NETS = {
    "grid": grid_network(9, 9, perturbation=0.1, seed=31),
    "one-way": one_way_grid_network(8, 8, seed=5),
}
_EDGES = {name: sorted((u, v) for u, v, _ in net.edges())
          for name, net in _NETS.items()}
#: weight factors: heavier traffic, free flow, below the geometry (drops
#: ``metric``) and ``None`` = put the original weight back
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


def _assert_scratch_equal(stack, outcome):
    snapshot = stack.network
    assert outcome.fingerprint == network_fingerprint(snapshot)
    installed = stack.preprocessing.peek(outcome.fingerprint, "overlay-csr")
    assert installed.network is snapshot
    scratch = build_overlay(snapshot, partition=installed.partition)
    assert dumps_overlay(installed) == dumps_overlay(scratch)
    for name in ("over_offsets", "over_targets", "over_weights",
                 "over_kinds", "boundary_ids", "metric", "undercut"):
        assert getattr(installed, name) == getattr(scratch, name), name


@given(drawn=update_sequences())
@settings(max_examples=40, deadline=None)
def test_every_installed_epoch_equals_a_scratch_build(drawn):
    name, batches = drawn
    base, edges = _NETS[name], _EDGES[name]
    with ServingStack.from_config(
        base.copy(), ServingConfig(engine="overlay-csr", max_workers=1)
    ) as stack:
        stack.warm()
        for batch in batches:
            changes = []
            for index, factor in batch:
                u, v = edges[index]
                original = base.edge_weight(u, v)
                changes.append(
                    (u, v, original if factor is None else original * factor)
                )
            before, previous = stack.network, stack._fingerprint()
            outcome = stack.reweight(changes, epoch=True)
            assert outcome.previous_fingerprint == previous
            assert stack.network is not before
            _assert_scratch_equal(stack, outcome)
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
