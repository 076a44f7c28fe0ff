"""Unit tests for repro.search.multi (MSMD processors)."""

from __future__ import annotations

import random

import networkx as nx
import pytest

from repro.exceptions import QueryError
from repro.network.generators import grid_network
from repro.search import get_engine, list_engines
from repro.search.multi import (
    NaivePairwiseProcessor,
    SharedTreeProcessor,
    SideSelectingProcessor,
)

ALL_PROCESSORS = [
    NaivePairwiseProcessor(),
    SharedTreeProcessor(),
    SideSelectingProcessor(),
]


@pytest.fixture(scope="module")
def oracle_pair():
    net = grid_network(12, 12, perturbation=0.1, seed=51)
    return net, net.to_networkx()


@pytest.fixture(scope="module")
def query_sets(oracle_pair):
    net, _g = oracle_pair
    rng = random.Random(8)
    nodes = list(net.nodes())
    sources = rng.sample(nodes, 3)
    destinations = rng.sample([n for n in nodes if n not in sources], 4)
    return sources, destinations


class TestAllProcessorsAgree:
    @pytest.mark.parametrize("processor", ALL_PROCESSORS, ids=lambda p: repr(p))
    def test_distances_match_oracle(self, oracle_pair, query_sets, processor):
        net, g = oracle_pair
        sources, destinations = query_sets
        result = processor.process(net, sources, destinations)
        assert result.num_paths == len(sources) * len(destinations)
        for (s, t), path in result.paths.items():
            theirs = nx.shortest_path_length(g, s, t, weight="weight")
            assert path.distance == pytest.approx(theirs)
            assert path.nodes[0] == s
            assert path.nodes[-1] == t

    @pytest.mark.parametrize("processor", ALL_PROCESSORS, ids=lambda p: repr(p))
    def test_paths_are_walkable(self, oracle_pair, query_sets, processor):
        net, _g = oracle_pair
        sources, destinations = query_sets
        result = processor.process(net, sources, destinations)
        for path in result.paths.values():
            for u, v in path.edges():
                assert net.has_edge(u, v)

    @pytest.mark.parametrize("processor", ALL_PROCESSORS, ids=lambda p: repr(p))
    def test_overlapping_s_and_t_gives_trivial_path(self, oracle_pair, processor):
        net, _g = oracle_pair
        nodes = list(net.nodes())
        shared_node = nodes[10]
        result = processor.process(net, [shared_node, nodes[2]], [shared_node])
        trivial = result.paths[(shared_node, shared_node)]
        assert trivial.nodes == (shared_node,)
        assert trivial.distance == 0.0


class TestValidation:
    def test_empty_sources_rejected(self, oracle_pair):
        net, _g = oracle_pair
        with pytest.raises(QueryError):
            SharedTreeProcessor().process(net, [], [next(net.nodes())])

    def test_empty_destinations_rejected(self, oracle_pair):
        net, _g = oracle_pair
        with pytest.raises(QueryError):
            SharedTreeProcessor().process(net, [next(net.nodes())], [])

    def test_duplicate_sources_rejected(self, oracle_pair):
        net, _g = oracle_pair
        nodes = list(net.nodes())
        with pytest.raises(QueryError):
            SharedTreeProcessor().process(net, [nodes[0], nodes[0]], [nodes[1]])

    def test_duplicate_destinations_rejected(self, oracle_pair):
        net, _g = oracle_pair
        nodes = list(net.nodes())
        with pytest.raises(QueryError):
            NaivePairwiseProcessor().process(net, [nodes[0]], [nodes[1], nodes[1]])


class TestCostOrdering:
    def test_shared_never_costlier_than_naive(self, oracle_pair, query_sets):
        net, _g = oracle_pair
        sources, destinations = query_sets
        naive = NaivePairwiseProcessor().process(net, sources, destinations)
        shared = SharedTreeProcessor().process(net, sources, destinations)
        assert shared.stats.settled_nodes <= naive.stats.settled_nodes

    def test_shared_grows_one_tree_per_source(self, oracle_pair, query_sets):
        net, _g = oracle_pair
        sources, destinations = query_sets
        result = SharedTreeProcessor().process(net, sources, destinations)
        assert result.searches == len(sources)

    def test_naive_runs_one_search_per_pair(self, oracle_pair, query_sets):
        net, _g = oracle_pair
        sources, destinations = query_sets
        result = NaivePairwiseProcessor().process(net, sources, destinations)
        assert result.searches == len(sources) * len(destinations)

    def test_side_selection_uses_smaller_side(self, oracle_pair):
        net, _g = oracle_pair
        nodes = list(net.nodes())
        sources = nodes[:5]
        destinations = nodes[20:22]
        result = SideSelectingProcessor().process(net, sources, destinations)
        assert result.searches == len(destinations)  # grew from T, not S

    def test_side_selection_keeps_source_side_when_smaller(self, oracle_pair):
        net, _g = oracle_pair
        nodes = list(net.nodes())
        sources = nodes[:2]
        destinations = nodes[20:25]
        result = SideSelectingProcessor().process(net, sources, destinations)
        assert result.searches == len(sources)

    def test_side_selection_beats_shared_when_t_smaller(self, oracle_pair):
        net, _g = oracle_pair
        nodes = list(net.nodes())
        sources = nodes[:6]
        destinations = nodes[100:102]
        shared = SharedTreeProcessor().process(net, sources, destinations)
        side = SideSelectingProcessor().process(net, sources, destinations)
        assert side.stats.settled_nodes <= shared.stats.settled_nodes


class TestMSMDResult:
    def test_path_for_lookup(self, oracle_pair, query_sets):
        net, _g = oracle_pair
        sources, destinations = query_sets
        result = SharedTreeProcessor().process(net, sources, destinations)
        path = result.path_for(sources[0], destinations[0])
        assert path.source == sources[0]
        with pytest.raises(KeyError):
            result.path_for("nope", "nada")


class TestRegistry:
    """``repro.search.ENGINES`` is the only registry: a processor is
    reached through its engine's row, so the two cannot drift."""

    @pytest.mark.parametrize("name", list_engines())
    def test_engine_row_names_its_processor(self, name):
        row = get_engine(name)
        processor = row.make_processor()
        if row.make_processor is SharedTreeProcessor:
            # the oracle batches with the paper's processor itself
            assert name == "dijkstra" and processor.name == "shared"
        else:
            assert processor.name == row.name
