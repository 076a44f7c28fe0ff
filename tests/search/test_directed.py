"""One-way street (directed network) support across the search stack.

All engines and processors are cross-checked on the alternating one-way
grid against a ``networkx.DiGraph`` oracle, and the full OPAQUE pipeline
is exercised end to end on directed maps.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.core.query import ClientRequest, PathQuery, ProtectionSetting
from repro.core.system import OpaqueSystem
from repro.network.generators import one_way_grid_network
from repro.search.dijkstra import dijkstra_path
from repro.search.multi import (
    NaivePairwiseProcessor,
    SharedTreeProcessor,
    SideSelectingProcessor,
)


@pytest.fixture(scope="module")
def one_way():
    net = one_way_grid_network(12, 12, perturbation=0.05, seed=701)
    return net, net.to_networkx()


@pytest.fixture(scope="module")
def pairs(one_way):
    net, _g = one_way
    rng = random.Random(9)
    nodes = list(net.nodes())
    return [tuple(rng.sample(nodes, 2)) for _ in range(25)]


class TestGenerator:
    def test_strongly_connected(self, one_way):
        net, _g = one_way
        assert net.directed
        assert net.is_strongly_connected()

    @pytest.mark.parametrize("width,height", [(2, 2), (3, 5), (8, 8)])
    def test_various_sizes_strongly_connected(self, width, height):
        assert one_way_grid_network(width, height).is_strongly_connected()

    def test_minimum_size_enforced(self):
        with pytest.raises(ValueError):
            one_way_grid_network(1, 5)

    def test_one_way_streets_exist(self, one_way):
        net, _g = one_way
        asymmetric = sum(
            1
            for u, v, _w in net.edges()
            if not net.has_edge(v, u)
        )
        assert asymmetric > 0

    def test_asymmetric_travel_times(self, one_way):
        """Somewhere in a one-way grid, the round trip is not symmetric."""
        net, _g = one_way
        nodes = list(net.nodes())
        found = False
        for s, t in ((nodes[1], nodes[30]), (nodes[5], nodes[77]), (nodes[13], nodes[50])):
            forward = dijkstra_path(net, s, t).distance
            backward = dijkstra_path(net, t, s).distance
            if abs(forward - backward) > 1e-9:
                found = True
                break
        assert found


class TestEnginesOnDirected:
    # Per-engine oracle parity on directed networks is covered by
    # tests/search/test_engine_conformance.py; this anchor validates the
    # Dijkstra oracle itself against networkx on one-way streets.

    def test_dijkstra_matches_oracle(self, one_way, pairs):
        net, g = one_way
        for s, t in pairs:
            ours = dijkstra_path(net, s, t).distance
            theirs = nx.shortest_path_length(g, s, t, weight="weight")
            assert ours == pytest.approx(theirs)


class TestProcessorsOnDirected:
    @pytest.mark.parametrize(
        "processor",
        [
            NaivePairwiseProcessor(),
            SharedTreeProcessor(),
            SideSelectingProcessor(),
        ],
        ids=["naive", "shared", "side-selecting"],
    )
    def test_processor_matches_oracle(self, one_way, processor):
        net, g = one_way
        nodes = list(net.nodes())
        sources = nodes[3:8]
        destinations = nodes[100:102]  # |T| < |S| exercises side selection
        result = processor.process(net, sources, destinations)
        for (s, t), path in result.paths.items():
            theirs = nx.shortest_path_length(g, s, t, weight="weight")
            assert path.distance == pytest.approx(theirs)
            for u, v in path.edges():
                assert net.has_edge(u, v)

    def test_side_selection_grows_from_destinations(self, one_way):
        net, _g = one_way
        nodes = list(net.nodes())
        result = SideSelectingProcessor().process(net, nodes[:6], nodes[50:52])
        assert result.searches == 2


class TestOpaqueOnDirected:
    def test_full_pipeline_on_one_way_city(self, one_way):
        net, _g = one_way
        nodes = list(net.nodes())
        requests = [
            ClientRequest("alice", PathQuery(nodes[5], nodes[120]),
                          ProtectionSetting(3, 3)),
            ClientRequest("bob", PathQuery(nodes[17], nodes[99]),
                          ProtectionSetting(2, 4)),
        ]
        for mode in ("independent", "shared"):
            system = OpaqueSystem(net, mode=mode, seed=3)
            results = system.submit(requests)
            for request in requests:
                truth = dijkstra_path(
                    net, request.query.source, request.query.destination
                )
                got = results[request.user]
                assert got.distance == pytest.approx(truth.distance)
                for u, v in got.edges():
                    assert net.has_edge(u, v)
